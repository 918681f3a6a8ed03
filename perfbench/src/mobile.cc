// mobile: the paper's Sec. VI-B arrival sequence in virtual time. One
// arrival every kInterarrival virtual seconds; booking subtractions (alpha)
// race admin price assignments on logically dependent members, so there are
// conflicts and waits; beta of the bookings disconnect (Sleep/Awake); a share
// are multi-step package tours (MultiGtmSession) and a share run behind a
// LossyChannel (FaultTolerantGtmSession, *Once dedup). A gtm::Gtm wrapped in
// TimedEndpoint serves a workload::GtmRunner with its wait-timeout sweep on,
// and an inactivity-oracle sweep (Gtm::SleepIdleTransactions) runs beside it.
// Sessions, runner, event queue, wait queues, sleep/awake and the sweeps do
// the work; storage does little. The virtual-time results are exact for a
// seed.

#include <memory>
#include <string>
#include <vector>

#include "check/checker.h"
#include "check/history.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "decorators.h"
#include "gtm/gtm.h"
#include "mobile/disconnect_model.h"
#include "mobile/multi_session.h"
#include "mobile/network.h"
#include "sim/distributions.h"
#include "sim/simulator.h"
#include "storage/database.h"
#include "workload/runner.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace preserial;

constexpr char kTable[] = "resources";
constexpr size_t kColQty = 1;
constexpr size_t kColPrice = 2;
constexpr size_t kObjects = 8;
constexpr int64_t kInitialQty = 1000000000;
constexpr double kPrice = 100.0;
constexpr double kAlpha = 0.7;       // P(booking subtraction).
constexpr double kBeta = 0.1;        // P(disconnection | booking).
constexpr double kTourShare = 0.1;   // Multi-step package tours.
constexpr double kLossyShare = 0.1;  // Clients behind the lossy channel.
constexpr Duration kInterarrival = 0.5;
constexpr Duration kWorkTime = 2.0;
constexpr Duration kDisconnectMean = 10.0;
constexpr Duration kWaitTimeout = 30.0;
constexpr Duration kIdleSweepEvery = 15.0;
constexpr Duration kIdleTimeout = 120.0;
constexpr size_t kHistoryArrivals = 1500;  // Oracle-checked prefix.

// SessionStats tags: single-op bookings/assignments (plain and lossy), and
// tours as kTagTour + step count, so conservation can count booked units.
enum Tag : int { kTagSub, kTagAssign, kTagLossySub, kTagLossyAssign, kTagTour };

constexpr size_t kTinyArrivals = 1500;

size_t ArrivalsFor(const RunConfig& cfg) {
  return cfg.tiny ? kTinyArrivals : 25000;
}

// One planned arrival, engine-ready.
struct Arrival {
  enum Kind { kPlain, kTour, kLossy } kind = kPlain;
  TimePoint at = 0;
  mobile::TxnPlan plain;
  mobile::MultiTxnPlan tour;
  mobile::FtPlan lossy;
};

gtm::ObjectId ObjectIdFor(size_t i) { return StrFormat("%s/%zu", kTable, i); }

std::vector<Arrival> Generate(size_t n, uint64_t seed) {
  Rng rng(seed);
  const mobile::DisconnectModel disconnects =
      mobile::DisconnectModel::WithExponentialDuration(kBeta, kDisconnectMean);
  const semantics::Operation book =
      semantics::Operation::Sub(storage::Value::Int(1));
  const semantics::Operation set_price =
      semantics::Operation::Assign(storage::Value::Double(kPrice));
  std::vector<Arrival> out(n);
  for (size_t i = 0; i < n; ++i) {
    Arrival& a = out[i];
    a.at = static_cast<double>(i) * kInterarrival;
    const double u = rng.NextDouble();
    if (u < kTourShare) {
      a.kind = Arrival::kTour;
      const size_t steps = static_cast<size_t>(rng.NextInt(2, 3));
      const size_t first = rng.NextBounded(kObjects);
      Duration span = 0;
      for (size_t k = 0; k < steps; ++k) {
        mobile::TourStep step;
        step.object = ObjectIdFor((first + k) % kObjects);  // Distinct.
        step.member = 0;
        step.op = book;
        step.think_time = rng.NextExponential(kWorkTime / 2);
        span += step.think_time;
        a.tour.steps.push_back(std::move(step));
      }
      a.tour.final_think = kWorkTime / 2;
      a.tour.disconnect = disconnects.Sample(rng, span + a.tour.final_think);
      a.tour.tag = kTagTour + static_cast<int>(steps);
      continue;
    }
    const bool lossy = u < kTourShare + kLossyShare;
    mobile::TxnPlan& plan = lossy ? a.lossy.base : a.plain;
    plan.object = ObjectIdFor(rng.NextBounded(kObjects));
    const bool is_sub = rng.NextBool(kAlpha);
    plan.member = is_sub ? 0 : 1;
    plan.op = is_sub ? book : set_price;
    plan.work_time = kWorkTime * (0.5 + rng.NextDouble());  // Mean kWorkTime.
    if (lossy) {
      a.kind = Arrival::kLossy;
      plan.tag = is_sub ? kTagLossySub : kTagLossyAssign;
      a.lossy.retry.request_timeout = 1.0;
      a.lossy.retry.max_attempts = 3;
      a.lossy.mode = mobile::FtMode::kDegradeToSleep;
      a.lossy.reconnect_delay = 5.0;
      a.lossy.max_degrades = 8;
    } else {
      plan.tag = is_sub ? kTagSub : kTagAssign;
      // Only mobile (booking) clients disconnect, per the paper.
      if (is_sub) plan.disconnect = disconnects.Sample(rng, plan.work_time);
    }
  }
  return out;
}

// One rep's system. Member order matters: the runner refers to everything
// declared before it.
struct World {
  CountingWal* wal = nullptr;  // Owned by db.
  std::unique_ptr<storage::Database> db;
  sim::Simulator sim;
  std::unique_ptr<gtm::Gtm> gtm;
  std::unique_ptr<TimedEndpoint> endpoint;
  mobile::LossyChannel channel;
  Rng channel_rng{0};
  std::unique_ptr<workload::GtmRunner> runner;
  // Wall time at each hundredth of the arrival span (virtual time).
  std::vector<uint64_t> checkpoint_ns;
  int64_t sessions = 0;
};

void SweepIdle(World* w) {
  {
    ScopedSpan span(kSpanGtmSleepIdle);
    (void)w->gtm->SleepIdleTransactions(kIdleTimeout);
  }
  // Stop once every session finished. (Testing sim.Idle() instead, as the
  // runner's own sweep does, would keep the two sweeps alive forever.)
  if (w->runner->stats().started < w->sessions) {
    w->sim.After(kIdleSweepEvery, [w] { SweepIdle(w); });
  }
}

std::unique_ptr<World> Setup(size_t n, uint64_t seed) {
  auto w = std::make_unique<World>();
  const std::vector<Arrival> arrivals = Generate(n, seed);
  w->sessions = static_cast<int64_t>(n);

  auto wal = std::make_unique<CountingWal>();
  w->wal = wal.get();
  w->db = std::make_unique<storage::Database>(std::move(wal));
  PRESERIAL_CHECK(w->db->Open().ok());
  Result<storage::Schema> schema = storage::Schema::Create(
      {storage::ColumnDef{"id", storage::ValueType::kInt64, false},
       storage::ColumnDef{"qty", storage::ValueType::kInt64, false},
       storage::ColumnDef{"price", storage::ValueType::kDouble, false}},
      /*primary_key=*/0);
  PRESERIAL_CHECK(schema.ok());
  PRESERIAL_CHECK(w->db->CreateTable(kTable, std::move(schema).value()).ok());
  w->gtm = std::make_unique<gtm::Gtm>(w->db.get(), w->sim.clock());
  for (size_t i = 0; i < kObjects; ++i) {
    const storage::Value key = storage::Value::Int(static_cast<int64_t>(i));
    const storage::Row row({key, storage::Value::Int(kInitialQty),
                            storage::Value::Double(kPrice)});
    PRESERIAL_CHECK(w->db->InsertRow(kTable, row).ok());
    semantics::LogicalDependencies deps;
    deps.AddDependency(0, 1);  // qty and price are logically dependent.
    PRESERIAL_CHECK(w->gtm
                        ->RegisterObject(ObjectIdFor(i), kTable, key,
                                         {kColQty, kColPrice}, std::move(deps))
                        .ok());
  }
  w->endpoint = std::make_unique<TimedEndpoint>(w->gtm.get());
  mobile::ChannelFaults faults;
  faults.loss = 0.1;
  faults.duplicate = 0.05;
  faults.reorder = 0.05;
  w->channel = mobile::LossyChannel(
      mobile::NetworkModel(std::make_unique<sim::ExponentialDist>(0.1)),
      faults);
  w->channel_rng = Rng(seed ^ 0x9e3779b97f4a7c15ull);
  w->runner = std::make_unique<workload::GtmRunner>(w->endpoint.get(), &w->sim,
                                                    kWaitTimeout);

  // Checkpoints first, so each fires before the arrivals sharing its time.
  const TimePoint last = arrivals.back().at;
  World* raw = w.get();
  for (int k = 0; k <= 100; ++k) {
    w->sim.At(last * k / 100.0,
              [raw] { raw->checkpoint_ns.push_back(NowNs()); });
  }
  for (const Arrival& a : arrivals) {
    switch (a.kind) {
      case Arrival::kPlain:
        w->runner->AddSession(a.plain, a.at);
        break;
      case Arrival::kTour:
        w->runner->AddMultiSession(a.tour, a.at);
        break;
      case Arrival::kLossy:
        w->runner->AddFaultTolerantSession(a.lossy, a.at, &w->channel,
                                           &w->channel_rng);
        break;
    }
  }
  w->sim.After(kIdleSweepEvery, [raw] { SweepIdle(raw); });
  return w;
}

struct MobileRep {
  double timed_s = 0;
  std::vector<double> hundredths;  // Wall ns per hundredth of arrivals.
  std::vector<double> latency_us;  // Begin -> commit reply, wall time.
  workload::RunStats stats;
  gtm::GtmCounters counters;
  uint64_t events = 0;
  int64_t live_end = 0;
  int64_t wal_appends = 0;
  int64_t wal_bytes = 0;
};

MobileRep RunRep(size_t n, uint64_t seed, RunResult* out) {
  MobileRep rep;
  std::unique_ptr<World> w = Setup(n, seed);
  const int64_t appends0 = w->wal->appends();
  const int64_t bytes0 = w->wal->bytes();

  const double start = NowS();
  {
    ScopedSpan span(kSpanRunnerRun);
    rep.stats = w->runner->Run();
  }
  rep.timed_s = NowS() - start;

  rep.latency_us = w->endpoint->commit_latency_us();
  rep.counters = w->gtm->metrics().counters();
  rep.events = w->sim.events_executed();
  rep.live_end = static_cast<int64_t>(w->gtm->live_transaction_count());
  rep.wal_appends = w->wal->appends() - appends0;
  rep.wal_bytes = w->wal->bytes() - bytes0;
  // Arrivals are evenly spaced, so each hundredth's wall time is
  // proportional to its per-transaction cost; drift compares the last tenth
  // of them with all of them.
  for (size_t k = 1; k < w->checkpoint_ns.size(); ++k) {
    rep.hundredths.push_back(
        static_cast<double>(w->checkpoint_ns[k] - w->checkpoint_ns[k - 1]));
  }

  // Gate: conservation — the quantity drained from the LDBS equals the
  // units booked by committed sessions.
  int64_t booked = 0;
  for (const auto& [tag, latency] : rep.stats.latency_by_tag) {
    if (tag == kTagSub || tag == kTagLossySub) booked += latency.count();
    if (tag > kTagTour) booked += (tag - kTagTour) * latency.count();
  }
  int64_t drained = 0;
  Result<storage::Table*> tbl = w->db->GetTable(kTable);
  PRESERIAL_CHECK(tbl.ok());
  for (size_t i = 0; i < kObjects; ++i) {
    Result<storage::Value> qty = tbl.value()->GetColumnByKey(
        storage::Value::Int(static_cast<int64_t>(i)), kColQty);
    PRESERIAL_CHECK(qty.ok());
    drained += kInitialQty - qty.value().as_int();
  }
  out->Check(drained == booked,
             StrFormat("mobile: drained %lld units, committed bookings %lld",
                       static_cast<long long>(drained),
                       static_cast<long long>(booked)));
  out->Check(rep.stats.started == static_cast<int64_t>(n),
             StrFormat("mobile: %lld of %zu sessions finished",
                       static_cast<long long>(rep.stats.started), n));
  out->attempted += rep.stats.started;
  return rep;
}

// Gate: the serializability oracle over a shorter, untimed run of the same
// generator and seed.
void CheckOracle(uint64_t seed, RunResult* out) {
  std::unique_ptr<World> w = Setup(kHistoryArrivals, seed);
  check::HistoryRecorder recorder;
  recorder.Attach(w->gtm.get(), size_t{1} << 22);
  (void)w->runner->Run();
  const check::History history = recorder.Finish();
  const check::CheckReport report = check::CheckHistory(history);
  out->Check(history.complete, "mobile: oracle history incomplete");
  out->Check(report.ok(), "mobile: CheckHistory: " + report.ToString());
  out->Note(StrFormat("mobile oracle: %zu committed txns checked, %s",
                      report.committed_txns, report.ok() ? "ok" : "VIOLATED"));
}

// Gate: virtual-time results are identical in every rep (a rep replays the
// same arrivals in virtual time). Returns the first rep's, which stand for
// all of them.
const workload::RunStats& CheckSameVirtualResults(
    const std::vector<MobileRep>& reps, RunResult* out) {
  const workload::RunStats& s = reps.front().stats;
  for (const MobileRep& r : reps) {
    out->Check(r.stats.committed == s.committed &&
                   r.stats.latency_committed.p50() ==
                       s.latency_committed.p50() &&
                   r.stats.latency_committed.p99() ==
                       s.latency_committed.p99() &&
                   r.stats.DisconnectedAbortPercent() ==
                       s.DisconnectedAbortPercent(),
               "mobile: virtual-time results differ between reps");
  }
  return s;
}

double Tps(const MobileRep& r) {
  return r.timed_s > 0 ? static_cast<double>(r.stats.committed) / r.timed_s
                       : 0;
}

}  // namespace

RunResult RunMobile(const RunConfig& cfg) {
  RunResult out;
  const size_t n = ArrivalsFor(cfg);
  // Warm-up rep at smoke size, so the first measured rep does not pay for
  // cold caches and allocator growth. Its gates count like any other.
  (void)RunRep(kTinyArrivals, cfg.seed, &out);
  std::vector<MobileRep> reps;
  auto run_rep = [&](int) {
    reps.push_back(RunRep(n, cfg.seed, &out));
    return reps.back().timed_s;
  };

  if (!cfg.trace) {
    std::vector<double> setup, tps, latency;
    DriftMeter drift;
    auto setup_only = [&] {
      const double t0 = NowS();
      std::unique_ptr<World> w = Setup(n, cfg.seed);
      return NowS() - t0;
    };
    const double peak_rss_mb =
        RunReps(cfg.seconds, 3, run_rep, setup_only, &setup);
    for (const MobileRep& r : reps) {
      tps.push_back(Tps(r));
      drift.AddRep(r.hundredths);
      latency.insert(latency.end(), r.latency_us.begin(), r.latency_us.end());
    }
    const workload::RunStats& s = CheckSameVirtualResults(reps, &out);
    out.Add("setup_s", Median(setup), "s");
    out.Add("txn_per_s", Median(tps), "txn/s");
    out.Add("txn_latency_p50_us", Quantile(latency, 0.50), "us");
    out.Add("txn_latency_p99_us", Quantile(latency, 0.99), "us");
    out.Add("cost_drift", drift.Drift(), "ratio");
    out.Add("peak_rss_mb", peak_rss_mb, "MB");
    out.Add("abort_pct", s.AbortPercent(), "%");
    out.Note(StrFormat("mobile: %zu reps of %zu arrivals; committed %lld, "
                       "latency samples %zu, disconnected %lld",
                       reps.size(), n, static_cast<long long>(s.committed),
                       latency.size(),
                       static_cast<long long>(s.disconnected)));
    CheckOracle(cfg.seed, &out);
    return out;
  }

  RunReps(cfg.seconds / 2, 1, run_rep);
  std::vector<double> untraced, events_per_s;
  for (const MobileRep& r : reps) {
    untraced.push_back(Tps(r));
    events_per_s.push_back(static_cast<double>(r.events) / r.timed_s);
  }
  const SpanSummary spans = WithTracer(cfg.spans_out, 40 * n, [&] {
    run_rep(0);
  });
  const double traced = Tps(reps.back());
  const double run_wall = reps.back().timed_s;
  const MobileRep& r0 = reps.front();  // Counts repeat exactly.
  const gtm::GtmCounters& c = r0.counters;
  const workload::RunStats& s = CheckSameVirtualResults(reps, &out);
  const double per_commit =
      c.committed > 0 ? 1.0 / static_cast<double>(c.committed) : 0;
  const std::vector<double> commit_us =
      spans.Durations({kSpanEpCommit, kSpanEpCommitOnce});
  const std::vector<double> invoke_us =
      spans.Durations({kSpanEpInvoke, kSpanEpInvokeOnce});
  const double runner_total = spans.total_s[kSpanRunnerRun];
  const double gtm_busy = runner_total - spans.self_s[kSpanRunnerRun];
  out.Add("gtm.commit_us_p50", Quantile(commit_us, 0.50), "us");
  out.Add("gtm.commit_us_p99", Quantile(commit_us, 0.99), "us");
  out.Add("gtm.invoke_us_p50", Quantile(invoke_us, 0.50), "us");
  out.Add("gtm.invoke_us_p99", Quantile(invoke_us, 0.99), "us");
  out.Add("gtm.sleep_awake_us_p99",
          Quantile(spans.Durations({kSpanEpSleep, kSpanEpAwake,
                                    kSpanEpSleepOnce, kSpanEpAwakeOnce}),
                   0.99),
          "us");
  out.Add("gtm.sweep_busy_s",
          spans.Total({kSpanEpAbortExpiredWaits, kSpanGtmSleepIdle}),
          "s");
  out.Add("gtm.busy_share", run_wall > 0 ? gtm_busy / run_wall : 0, "ratio");
  out.Add("gtm.waits", static_cast<double>(c.waits), "count");
  out.Add("gtm.shared_grant_ratio",
          c.invocations > 0 ? static_cast<double>(c.shared_grants) /
                                  static_cast<double>(c.invocations)
                            : 0,
          "ratio");
  out.Add("gtm.awake_aborts", static_cast<double>(c.awake_aborts), "count");
  out.Add("gtm.deadlock_refusals", static_cast<double>(c.deadlock_refusals),
          "count");
  out.Add("gtm.live_txns_end", static_cast<double>(r0.live_end), "count");
  out.Add("storage.wal_bytes_per_commit",
          static_cast<double>(r0.wal_bytes) * per_commit, "B");
  out.Add("storage.wal_appends_per_commit",
          static_cast<double>(r0.wal_appends) * per_commit, "count");
  out.Add("workload.runner_self_s", spans.self_s[kSpanRunnerRun],
          "s");
  out.Add("sim.events", static_cast<double>(r0.events), "count");
  out.Add("sim.events_per_s", Median(events_per_s), "1/s");
  out.Add("mobile.retries", static_cast<double>(r0.stats.retries), "count");
  out.Add("mobile.degraded_to_sleep",
          static_cast<double>(r0.stats.degraded_to_sleep), "count");
  out.Add("mobile.duplicates_suppressed",
          static_cast<double>(c.duplicates_suppressed), "count");
  out.Add("virtual_latency_p50_s", s.latency_committed.p50(), "sim_s");
  out.Add("virtual_latency_p99_s", s.latency_committed.p99(), "sim_s");
  out.Add("sleeper_abort_pct", s.DisconnectedAbortPercent(), "%");
  out.Add("obs.bench_trace_overhead_pct",
          TraceOverheadPct(Median(untraced), traced), "%");
  out.Note(StrFormat("mobile traced: %lld spans, %lld dropped; commit samples "
                     "%zu",
                     static_cast<long long>(spans.spans),
                     static_cast<long long>(spans.dropped), commit_us.size()));
  CheckOracle(cfg.seed, &out);
  return out;
}

}  // namespace perfbench
