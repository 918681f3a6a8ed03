#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

Tracer* g_tracer = nullptr;

std::atomic<uint64_t> Tracer::next_id_{0};

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void DriftMeter::AddRep(const std::vector<double>& costs) {
  const size_t tenth = costs.size() / 10;
  all_.insert(all_.end(), costs.begin(), costs.end());
  last_.insert(last_.end(), costs.end() - tenth, costs.end());
}

double DriftMeter::Drift() const {
  const double base = Median(all_);
  return base > 0 ? Median(last_) / base : 1.0;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

// --- spans -------------------------------------------------------------------

const char* SpanNameString(SpanName name) {
  static const char* const kNames[kNumSpanNames] = {
      "txn",
      "gtm.Begin",
      "gtm.Invoke",
      "gtm.ReadLocal",
      "gtm.RequestCommit",
      "gtm.RequestAbort",
      "gtm.Sleep",
      "gtm.Awake",
      "gtm.InvokeOnce",
      "gtm.CommitOnce",
      "gtm.AbortOnce",
      "gtm.SleepOnce",
      "gtm.AwakeOnce",
      "gtm.StateOf",
      "gtm.TakeEvents",
      "gtm.AbortExpiredWaits",
      "gtm.SleepIdleTransactions",
      "gtm_service.Begin",
      "gtm_service.Invoke",
      "gtm_service.Read",
      "gtm_service.Commit",
      "gtm_service.Abort",
      "storage.WalAppend",
      "storage.WalSync",
      "cluster.Begin",
      "cluster.Invoke",
      "cluster.RequestCommit",
      "cluster.CommitGlobal",
      "cluster.RequestAbort",
      "replica.Begin",
      "replica.InvokeOnce",
      "replica.CommitOnce",
      "replica.AbortOnce",
      "replica.SleepOnce",
      "replica.AwakeOnce",
      "replica.Pump",
      "workload.GtmRunner.Run",
  };
  return name < kNumSpanNames ? kNames[name] : "?";
}

std::vector<double> SpanSummary::Durations(
    std::initializer_list<SpanName> names) const {
  std::vector<double> out;
  for (SpanName n : names) {
    out.insert(out.end(), durations_us[n].begin(), durations_us[n].end());
  }
  return out;
}

double SpanSummary::Total(std::initializer_list<SpanName> names) const {
  double total = 0;
  for (SpanName n : names) total += total_s[n];
  return total;
}

Tracer::ThreadBuffer* Tracer::Local() {
  // One buffer per (thread, tracer); the cache is keyed on the tracer's
  // unique id so a later tracer never reuses a dead one's buffer.
  thread_local uint64_t owner = 0;
  thread_local ThreadBuffer* local = nullptr;
  if (owner != id_) {
    std::lock_guard<std::mutex> lk(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    local = buffers_.back().get();
    local->spans.reserve(capacity_);
    owner = id_;
  }
  return local;
}

int32_t Tracer::Open(SpanName name) {
  ThreadBuffer* b = Local();
  if (b->spans.size() >= capacity_) {
    ++b->dropped;
    return -1;
  }
  Span s;
  s.name = name;
  s.parent = b->stack.empty() ? -1 : b->stack.back();
  s.root = b->root;
  const int32_t index = static_cast<int32_t>(b->spans.size());
  b->spans.push_back(s);
  b->stack.push_back(index);
  b->spans.back().start_ns = NowNs();
  return index;
}

void Tracer::Close(int32_t index) {
  const uint64_t end = NowNs();
  ThreadBuffer* b = Local();
  b->spans[static_cast<size_t>(index)].end_ns = end;
  b->stack.pop_back();
}

uint32_t Tracer::OpenRoot() {
  ThreadBuffer* b = Local();
  if (b->spans.size() >= capacity_) {
    ++b->dropped;
    return kNoRoot;
  }
  Span s;
  s.name = kSpanTxn;
  s.start_ns = NowNs();
  b->spans.push_back(s);
  return static_cast<uint32_t>(b->spans.size() - 1);
}

void Tracer::CloseRoot(uint32_t index) {
  if (index == kNoRoot) return;
  Local()->spans[index].end_ns = NowNs();
}

void Tracer::SetRoot(uint32_t index) { Local()->root = index; }

SpanSummary Tracer::Summarize() const {
  std::lock_guard<std::mutex> lk(mu_);
  SpanSummary sum;
  for (const auto& b : buffers_) {
    std::vector<uint64_t> child_ns(b->spans.size(), 0);
    for (const Span& s : b->spans) {
      if (s.parent >= 0 && s.end_ns >= s.start_ns) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      if (s.end_ns < s.start_ns) continue;  // Never closed.
      const uint64_t dur = s.end_ns - s.start_ns;
      sum.durations_us[s.name].push_back(static_cast<double>(dur) * 1e-3);
      sum.total_s[s.name] += static_cast<double>(dur) * 1e-9;
      sum.self_s[s.name] +=
          static_cast<double>(dur - std::min(dur, child_ns[i])) * 1e-9;
    }
    sum.spans += static_cast<int64_t>(b->spans.size());
    sum.dropped += b->dropped;
  }
  return sum;
}

bool Tracer::WriteTo(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  auto put32 = [f](uint32_t v) { std::fwrite(&v, sizeof v, 1, f); };
  auto put64 = [f](uint64_t v) { std::fwrite(&v, sizeof v, 1, f); };
  std::fwrite("PBSPANS1", 1, 8, f);
  put32(kNumSpanNames);
  for (uint16_t n = 0; n < kNumSpanNames; ++n) {
    const char* s = SpanNameString(static_cast<SpanName>(n));
    put32(static_cast<uint32_t>(std::strlen(s)));
    std::fwrite(s, 1, std::strlen(s), f);
  }
  put32(static_cast<uint32_t>(buffers_.size()));
  for (const auto& b : buffers_) {
    put64(b->spans.size());
    for (const Span& s : b->spans) {
      put64(s.start_ns);
      put64(s.end_ns);
      put32(static_cast<uint32_t>(s.parent));
      put32(s.root);
      put32(s.name);
    }
  }
  return std::fclose(f) == 0;
}

// --- result record -----------------------------------------------------------

std::string ToJson(const RunResult& r) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// --- rep loop ----------------------------------------------------------------

double RunReps(double budget_s, int min_reps,
               const std::function<double(int)>& rep,
               const std::function<double()>& setup_only,
               std::vector<double>* setup_samples) {
  double spent = 0;
  double first_rep_rss_mb = 0;
  for (int reps = 0; reps < min_reps || spent < budget_s; ++reps) {
    spent += rep(reps);
    if (reps == 0) first_rep_rss_mb = PeakRssMb();
    for (int k = 0; setup_only && k < kSetupSamplesPerRep; ++k) {
      setup_samples->push_back(setup_only());
    }
  }
  while (setup_only && setup_samples->size() < kSetupSamples) {
    setup_samples->push_back(setup_only());
  }
  return first_rep_rss_mb;
}

SpanSummary WithTracer(const std::string& spans_out,
                       size_t per_thread_capacity,
                       const std::function<void()>& body) {
  Tracer tracer(per_thread_capacity);
  g_tracer = &tracer;
  body();
  g_tracer = nullptr;
  if (!spans_out.empty() && !tracer.WriteTo(spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 spans_out.c_str());
  }
  return tracer.Summarize();
}

}  // namespace perfbench
