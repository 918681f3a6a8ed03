// Shared plumbing of the preserial benchmark: wall clock, statistics, the
// in-memory span tracer, the per-run result record and the rep loop every
// workload uses.
//
// Tracing model. A span is one call into a layer, recorded from the
// benchmark's own files (decorators and call sites), never from inside the
// library. Spans nest per thread: a span opened while another is open on the
// same thread becomes its child, so a span's self time is its duration minus
// its children's. Each client transaction also gets one root span (Begin
// call -> final reply); call spans carry the id of the root they serve, even
// when a single client thread interleaves several transactions. Spans live in
// preallocated per-thread buffers and are written out after the run.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

// --- statistics --------------------------------------------------------------

// q in [0, 1], linear interpolation between closest ranks; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
// cost_drift: pools every rep's per-item costs (in order) and the last
// tenth of them, and compares their medians. The reference is the whole rep,
// not its first tenth: the first tenth is short and runs on a small, cache-
// resident history, and its median moved by 20-30% from run to run of the
// same code while the last tenth and the whole rep moved by a few percent.
class DriftMeter {
 public:
  void AddRep(const std::vector<double>& costs);
  // Median of the pooled last tenths ÷ that of the pooled reps; 1.0 = flat.
  double Drift() const;

 private:
  std::vector<double> all_;
  std::vector<double> last_;
};

// Peak resident set (VmHWM) of this process in MB.
double PeakRssMb();

// --- spans -------------------------------------------------------------------

enum SpanName : uint16_t {
  kSpanTxn,  // Root span: one client transaction, Begin call -> final reply.
  // gtm::GtmEndpoint virtuals (through TimedEndpoint).
  kSpanEpBegin,
  kSpanEpInvoke,
  kSpanEpReadLocal,
  kSpanEpCommit,
  kSpanEpAbort,
  kSpanEpSleep,
  kSpanEpAwake,
  kSpanEpInvokeOnce,
  kSpanEpCommitOnce,
  kSpanEpAbortOnce,
  kSpanEpSleepOnce,
  kSpanEpAwakeOnce,
  kSpanEpStateOf,
  kSpanEpTakeEvents,
  kSpanEpAbortExpiredWaits,
  kSpanGtmSleepIdle,  // gtm::Gtm::SleepIdleTransactions (not an endpoint).
  // gtm::GtmService.
  kSpanSvcBegin,
  kSpanSvcInvoke,
  kSpanSvcRead,
  kSpanSvcCommit,
  kSpanSvcAbort,
  // storage::WalStorage (through CountingWal).
  kSpanWalAppend,
  kSpanWalSync,
  // cluster::ClusterService.
  kSpanClBegin,
  kSpanClInvoke,
  kSpanClCommit1pc,
  kSpanClCommitGlobal,
  kSpanClAbort,
  // replica::ReplicaService.
  kSpanRpBegin,
  kSpanRpInvokeOnce,
  kSpanRpCommitOnce,
  kSpanRpAbortOnce,
  kSpanRpSleepOnce,
  kSpanRpAwakeOnce,
  kSpanRpPump,
  // workload::GtmRunner::Run.
  kSpanRunnerRun,
  kNumSpanNames,
};
const char* SpanNameString(SpanName name);

inline constexpr uint32_t kNoRoot = 0xffffffffu;

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;     // Index in the same thread's buffer; -1 = none.
  uint32_t root = kNoRoot;  // Index of the root (kSpanTxn) span served.
  uint16_t name = 0;
};

// Per-name aggregate over every recorded span.
struct SpanSummary {
  std::vector<double> durations_us[kNumSpanNames];
  double total_s[kNumSpanNames] = {};
  double self_s[kNumSpanNames] = {};
  int64_t spans = 0;
  int64_t dropped = 0;

  // Pooled durations of several names.
  std::vector<double> Durations(std::initializer_list<SpanName> names) const;
  double Total(std::initializer_list<SpanName> names) const;
};

class Tracer {
 public:
  explicit Tracer(size_t per_thread_capacity)
      : id_(++next_id_), capacity_(per_thread_capacity) {}

  // Opens a call span on the calling thread; -1 when the buffer is full.
  int32_t Open(SpanName name);
  void Close(int32_t index);
  // Root spans do not nest: they are opened and closed by the client loop
  // around an interleaved transaction. SetRoot marks which root the
  // following call spans on this thread serve.
  uint32_t OpenRoot();
  void CloseRoot(uint32_t index);
  void SetRoot(uint32_t index);

  SpanSummary Summarize() const;
  // Binary dump: see NOTES.md ("Span file format").
  bool WriteTo(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::vector<Span> spans;
    std::vector<int32_t> stack;
    uint32_t root = kNoRoot;
    int64_t dropped = 0;
  };
  ThreadBuffer* Local();

  static std::atomic<uint64_t> next_id_;
  const uint64_t id_;
  size_t capacity_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// The active tracer; null in untraced passes. Set only while no client
// thread runs.
extern Tracer* g_tracer;

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name)
      : index_(g_tracer != nullptr ? g_tracer->Open(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) g_tracer->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t index_;
};

// --- result record -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  // Smoke-test size.
  std::string spans_out;  // Span dump path (traced runs); empty = none.
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;   // Printed before the JSON line.
  std::vector<std::string> errors;  // Gate failures.

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
  // A correctness gate failed: the run is reported and exits non-zero.
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
};

std::string ToJson(const RunResult& result);

// --- rep loop ----------------------------------------------------------------

// Every workload runs in reps: a fresh system is set up (timed as setup),
// then driven through the same pre-generated op stream (timed). Reps repeat
// until `budget_s` of timed phase is spent, at least `min_reps` times.
// `rep(i)` returns the rep's timed seconds.
//
// When `setup_only` is set, it builds and discards one system and returns
// its setup seconds. It runs kSetupSamplesPerRep times after every rep, then
// until `setup_samples` holds kSetupSamples values. Setup is short next to a
// rep, so its median needs more samples than the reps give, spread over the
// whole run rather than taken in one burst.
//
// Returns the process's peak RSS (MB) right after the first rep, which is
// what peak_rss_mb reports: later reps reuse the memory the first one freed,
// and how well they manage adds allocator noise, not program footprint.
inline constexpr int kSetupSamplesPerRep = 3;
inline constexpr size_t kSetupSamples = 21;
double RunReps(double budget_s, int min_reps,
               const std::function<double(int)>& rep,
               const std::function<double()>& setup_only = {},
               std::vector<double>* setup_samples = nullptr);

// Traced pass helper: installs a tracer for the duration of `body`, writes
// the spans to `spans_out` (when non-empty) and returns their summary.
SpanSummary WithTracer(const std::string& spans_out,
                       size_t per_thread_capacity,
                       const std::function<void()>& body);

// abort_pct: the share of attempted transactions that did not commit.
inline double AbortPct(int64_t attempted, int64_t committed) {
  return attempted > 0 ? 100.0 * static_cast<double>(attempted - committed) /
                             static_cast<double>(attempted)
                       : 0.0;
}

// obs.bench_trace_overhead_pct from untraced and traced throughput.
inline double TraceOverheadPct(double untraced_tps, double traced_tps) {
  return untraced_tps > 0 ? 100.0 * (untraced_tps - traced_tps) / untraced_tps
                          : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
