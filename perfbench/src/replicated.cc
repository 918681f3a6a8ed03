// replicated: one client thread in a closed loop of *Once calls over a
// replica::ReplicaService (one primary, one backup, async log shipping). A
// share of the transactions Sleep and Awake mid-flight; the same thread calls
// Pump() every kPumpEvery transactions, a cadence at which the default ship
// window keeps the replication lag bounded. Ops are compatible add/sub, so
// nothing waits and no sleeper aborts. Only this workload runs the replica
// log, ship and apply layer.

#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "decorators.h"
#include "replica/service.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace preserial;

constexpr char kTable[] = "accounts";
constexpr size_t kObjects = 16;
constexpr int64_t kInitialQty = int64_t{1} << 50;
constexpr double kSleepShare = 0.1;
constexpr size_t kPumpEvery = 8;
constexpr int kMaxAmount = 5;

constexpr size_t kTinyTxns = 1500;

size_t TxnsFor(const RunConfig& cfg) { return cfg.tiny ? kTinyTxns : 30000; }

struct ReplicatedOp {
  uint16_t object;
  int8_t delta;  // Added to the quantity: negative = booking.
};
struct ReplicatedTxn {
  uint32_t first_op;
  uint8_t num_ops;
  bool sleeps;
  bool cancel;
};

struct ReplicatedWorld {
  std::vector<ReplicatedTxn> txns;
  std::vector<ReplicatedOp> ops;
  std::vector<gtm::ObjectId> object_ids;
  std::unique_ptr<replica::ReplicaService> svc;
};

std::unique_ptr<ReplicatedWorld> Setup(size_t n, uint64_t seed) {
  auto w = std::make_unique<ReplicatedWorld>();
  Rng rng(seed);
  w->txns.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ReplicatedTxn t;
    t.first_op = static_cast<uint32_t>(w->ops.size());
    t.num_ops = static_cast<uint8_t>(rng.NextInt(1, 2));
    t.sleeps = rng.NextBool(kSleepShare);
    t.cancel = (i % kCancelEvery) == kCancelEvery - 1;
    for (int k = 0; k < t.num_ops; ++k) {
      const int amount = static_cast<int>(rng.NextInt(1, kMaxAmount));
      w->ops.push_back(ReplicatedOp{
          static_cast<uint16_t>(rng.NextBounded(kObjects)),
          static_cast<int8_t>(rng.NextBool(0.6) ? -amount : amount)});
    }
    w->txns.push_back(t);
  }

  replica::ReplicaOptions options;
  options.num_backups = 1;
  options.ship.mode = replica::ShipMode::kAsync;
  w->svc = std::make_unique<replica::ReplicaService>(gtm::GtmOptions{}, options,
                                                     seed);
  Result<storage::Schema> schema = storage::Schema::Create(
      {storage::ColumnDef{"id", storage::ValueType::kInt64, false},
       storage::ColumnDef{"qty", storage::ValueType::kInt64, false}},
      /*primary_key=*/0);
  PRESERIAL_CHECK(schema.ok());
  PRESERIAL_CHECK(w->svc->CreateTable(kTable, std::move(schema).value()).ok());
  for (size_t i = 0; i < kObjects; ++i) {
    const storage::Value key = storage::Value::Int(static_cast<int64_t>(i));
    PRESERIAL_CHECK(
        w->svc
            ->InsertRow(kTable,
                        storage::Row({key, storage::Value::Int(kInitialQty)}))
            .ok());
    w->object_ids.push_back(StrFormat("%s/%zu", kTable, i));
    PRESERIAL_CHECK(
        w->svc->RegisterObject(w->object_ids.back(), kTable, key, {1}).ok());
  }
  // Start the timed phase from a fully shipped log.
  PRESERIAL_CHECK(w->svc->Pump().ok());
  return w;
}

struct ReplicatedRep {
  double timed_s = 0;
  int64_t attempted = 0;
  int64_t committed = 0;
  std::vector<double> latency_us;  // Per txn, in order.
  uint64_t lag_max = 0;
  double pump_s = 0;
};

// Gate: after a final pump with lag 0, every backup holds the primary's
// committed state, member by member and in its LDBS.
void CheckBackups(replica::ReplicaService* svc,
                  const std::vector<gtm::ObjectId>& object_ids,
                  RunResult* out) {
  for (int i = 0; i < 1000 && svc->ReplicationLag() > 0; ++i) {
    (void)svc->Pump();
  }
  out->Check(svc->ReplicationLag() == 0, "replicated: lag never drained");
  replica::ReplicatedGtm* group = svc->group();
  const size_t primary = group->primary_index();
  for (size_t n = 0; n < group->num_nodes(); ++n) {
    if (n == primary) continue;
    for (size_t i = 0; i < object_ids.size(); ++i) {
      Result<storage::Value> want =
          group->node(primary)->gtm()->PermanentValue(object_ids[i], 0);
      Result<storage::Value> got =
          group->node(n)->gtm()->PermanentValue(object_ids[i], 0);
      const storage::Value key = storage::Value::Int(static_cast<int64_t>(i));
      Result<storage::Value> want_row =
          group->node(primary)->db()->GetTable(kTable).value()->GetColumnByKey(
              key, 1);
      Result<storage::Value> got_row =
          group->node(n)->db()->GetTable(kTable).value()->GetColumnByKey(
              key, 1);
      out->Check(want.ok() && got.ok() && want.value() == got.value() &&
                     want_row.ok() && got_row.ok() &&
                     want_row.value() == got_row.value(),
                 StrFormat("replicated: backup %zu diverges on %s", n,
                           object_ids[i].c_str()));
    }
  }
}

ReplicatedRep RunRep(size_t n, uint64_t seed, RunResult* out) {
  ReplicatedRep rep;
  std::unique_ptr<ReplicatedWorld> w = Setup(n, seed);
  replica::ReplicaService& svc = *w->svc;

  // *Once deltas are pre-built: Operation holds a Value.
  std::vector<semantics::Operation> by_delta(2 * kMaxAmount + 1);
  for (int d = -kMaxAmount; d <= kMaxAmount; ++d) {
    by_delta[static_cast<size_t>(d + kMaxAmount)] =
        d < 0 ? semantics::Operation::Sub(storage::Value::Int(-d))
              : semantics::Operation::Add(storage::Value::Int(d));
  }
  std::vector<int64_t> drained(kObjects, 0);
  int64_t failed = 0;
  rep.latency_us.reserve(n);

  const double start = NowS();
  for (size_t i = 0; i < n; ++i) {
    const ReplicatedTxn& t = w->txns[i];
    const uint64_t begin_ns = NowNs();
    uint32_t root = kNoRoot;
    if (g_tracer != nullptr) {
      root = g_tracer->OpenRoot();
      g_tracer->SetRoot(root);
    }
    TxnId txn;
    {
      ScopedSpan span(kSpanRpBegin);
      txn = svc.Begin();
    }
    uint64_t seq = 0;
    Status st = txn != kInvalidTxnId ? Status::Ok()
                                     : Status::Internal("Begin refused");
    for (uint32_t k = 0; k < t.num_ops && st.ok(); ++k) {
      const ReplicatedOp& op = w->ops[t.first_op + k];
      ScopedSpan span(kSpanRpInvokeOnce);
      st = svc.InvokeOnce(txn, ++seq, w->object_ids[op.object], 0,
                          by_delta[static_cast<size_t>(op.delta + kMaxAmount)]);
    }
    if (st.ok() && t.sleeps) {
      {
        ScopedSpan span(kSpanRpSleepOnce);
        st = svc.SleepOnce(txn, ++seq);
      }
      if (st.ok()) {
        ScopedSpan span(kSpanRpAwakeOnce);
        st = svc.AwakeOnce(txn, ++seq);
      }
    }
    if (st.ok()) {
      if (t.cancel) {
        ScopedSpan span(kSpanRpAbortOnce);
        st = svc.AbortOnce(txn, ++seq);
      } else {
        ScopedSpan span(kSpanRpCommitOnce);
        st = svc.CommitOnce(txn, ++seq);
      }
    }
    rep.latency_us.push_back(static_cast<double>(NowNs() - begin_ns) * 1e-3);
    if (g_tracer != nullptr) g_tracer->CloseRoot(root);
    ++rep.attempted;
    if (!st.ok()) {
      ++failed;
    } else if (!t.cancel) {
      ++rep.committed;
      for (uint32_t k = 0; k < t.num_ops; ++k) {
        const ReplicatedOp& op = w->ops[t.first_op + k];
        drained[op.object] -= op.delta;
      }
    }
    if ((i + 1) % kPumpEvery == 0) {
      const uint64_t pump_start = NowNs();
      {
        ScopedSpan span(kSpanRpPump);
        if (!svc.Pump().ok()) ++failed;
      }
      rep.pump_s += static_cast<double>(NowNs() - pump_start) * 1e-9;
      rep.lag_max = std::max(rep.lag_max, svc.ReplicationLag());
    }
  }
  rep.timed_s = NowS() - start;

  // Gates: conservation on the primary, then backup == primary.
  for (size_t i = 0; i < kObjects; ++i) {
    Result<storage::Value> qty = svc.group()
                                     ->node(svc.group()->primary_index())
                                     ->db()
                                     ->GetTable(kTable)
                                     .value()
                                     ->GetColumnByKey(
                                         storage::Value::Int(
                                             static_cast<int64_t>(i)),
                                         1);
    const int64_t got = qty.ok() ? kInitialQty - qty.value().as_int() : -1;
    out->Check(qty.ok() && got == drained[i],
               StrFormat("replicated: object %zu drained %lld, committed net "
                         "%lld",
                         i, static_cast<long long>(got),
                         static_cast<long long>(drained[i])));
  }
  CheckBackups(&svc, w->object_ids, out);
  out->Check(failed == 0, StrFormat("replicated: %lld calls failed",
                                    static_cast<long long>(failed)));
  out->attempted += rep.attempted;
  out->failed += failed;
  return rep;
}

double Tps(const ReplicatedRep& r) {
  return r.timed_s > 0 ? static_cast<double>(r.committed) / r.timed_s : 0;
}

}  // namespace

RunResult RunReplicated(const RunConfig& cfg) {
  RunResult out;
  const size_t n = TxnsFor(cfg);
  // Warm-up rep at smoke size, so the first measured rep does not pay for
  // cold caches and allocator growth. Its gates count like any other.
  (void)RunRep(kTinyTxns, cfg.seed, &out);
  std::vector<ReplicatedRep> reps;
  auto run_rep = [&](int) {
    reps.push_back(RunRep(n, cfg.seed, &out));
    return reps.back().timed_s;
  };

  if (!cfg.trace) {
    std::vector<double> setup, tps, latency;
    DriftMeter drift;
    auto setup_only = [&] {
      const double t0 = NowS();
      std::unique_ptr<ReplicatedWorld> w = Setup(n, cfg.seed);
      return NowS() - t0;
    };
    const double peak_rss_mb =
        RunReps(cfg.seconds, 3, run_rep, setup_only, &setup);
    int64_t attempted = 0, committed = 0;
    for (const ReplicatedRep& r : reps) {
      tps.push_back(Tps(r));
      drift.AddRep(r.latency_us);
      latency.insert(latency.end(), r.latency_us.begin(), r.latency_us.end());
      attempted += r.attempted;
      committed += r.committed;
    }
    out.Add("setup_s", Median(setup), "s");
    out.Add("txn_per_s", Median(tps), "txn/s");
    out.Add("txn_latency_p50_us", Quantile(latency, 0.50), "us");
    out.Add("txn_latency_p99_us", Quantile(latency, 0.99), "us");
    out.Add("cost_drift", drift.Drift(), "ratio");
    out.Add("peak_rss_mb", peak_rss_mb, "MB");
    out.Add("abort_pct", AbortPct(attempted, committed), "%");
    out.Note(StrFormat("replicated: %zu reps of %zu txns; latency samples %zu",
                       reps.size(), n, latency.size()));
    return out;
  }

  RunReps(cfg.seconds / 2, 1, run_rep);
  std::vector<double> untraced;
  for (const ReplicatedRep& r : reps) untraced.push_back(Tps(r));
  const SpanSummary spans = WithTracer(cfg.spans_out, 12 * n, [&] {
    run_rep(0);
  });
  const ReplicatedRep& traced = reps.back();
  const std::vector<double> pump_us = spans.Durations({kSpanRpPump});
  out.Add("replica.commit_us_p99",
          Quantile(spans.Durations({kSpanRpCommitOnce}), 0.99), "us");
  out.Add("replica.pump_us_p50", Quantile(pump_us, 0.50), "us");
  out.Add("replica.pump_us_p99", Quantile(pump_us, 0.99), "us");
  out.Add("replica.pump_busy_share", traced.pump_s / traced.timed_s, "ratio");
  out.Add("replica.lag_max_records", static_cast<double>(traced.lag_max),
          "count");
  out.Add("obs.bench_trace_overhead_pct",
          TraceOverheadPct(Median(untraced), Tps(traced)), "%");
  out.Note(StrFormat("replicated traced: %lld spans, %lld dropped; pump "
                     "samples %zu",
                     static_cast<long long>(spans.spans),
                     static_cast<long long>(spans.dropped), pump_us.size()));
  return out;
}

}  // namespace perfbench
