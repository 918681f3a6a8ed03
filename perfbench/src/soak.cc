// soak: one client thread in a closed loop over gtm::GtmService on a small
// hot set. The client keeps kOpenTxns transactions open and advances them
// round-robin one step at a time, so every commit reconciles against live
// compatible holders (eq. 1). Ops are add, sub and read — all mutually
// compatible — so nothing ever waits. The GTM commit path and the LDBS
// (SST + WAL) do the work; sim, mobile, cluster and replica are bypassed.

#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "decorators.h"
#include "gtm/gtm_service.h"
#include "storage/database.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace preserial;

constexpr char kTable[] = "hot";
constexpr size_t kOpenTxns = 4;
constexpr int64_t kInitialQty = int64_t{1} << 50;
constexpr int kMaxAmount = 5;

enum SoakKind : uint8_t { kAdd, kSub, kRead, kNumKinds };

struct SoakOp {
  uint16_t object;
  uint8_t kind;
  uint8_t amount;  // 1..kMaxAmount
};
struct SoakTxn {
  uint32_t first_op;
  uint8_t num_ops;
  bool cancel;
};

struct SoakSize {
  size_t txns;
  size_t objects;
};

constexpr SoakSize kTinySize{2000, 8};

SoakSize SizeFor(const RunConfig& cfg) {
  return cfg.tiny ? kTinySize : SoakSize{100000, 8};
}

// Everything one rep needs, built (and timed) before the timed phase.
struct SoakSystem {
  std::vector<SoakTxn> txns;
  std::vector<SoakOp> ops;
  std::vector<gtm::ObjectId> object_ids;
  CountingWal* wal = nullptr;  // Owned by db.
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<gtm::GtmService> svc;
};

std::unique_ptr<SoakSystem> Setup(const SoakSize& size, uint64_t seed) {
  auto sys = std::make_unique<SoakSystem>();
  Rng rng(seed);
  sys->txns.reserve(size.txns);
  sys->ops.reserve(size.txns * 3);
  for (size_t i = 0; i < size.txns; ++i) {
    SoakTxn t;
    t.first_op = static_cast<uint32_t>(sys->ops.size());
    t.num_ops = static_cast<uint8_t>(rng.NextInt(1, 3));
    t.cancel = (i % kCancelEvery) == kCancelEvery - 1;
    for (int k = 0; k < t.num_ops; ++k) {
      SoakOp op;
      op.object = static_cast<uint16_t>(rng.NextBounded(size.objects));
      const double u = rng.NextDouble();
      op.kind = u < 0.3 ? kAdd : (u < 0.8 ? kSub : kRead);
      op.amount = static_cast<uint8_t>(rng.NextInt(1, kMaxAmount));
      sys->ops.push_back(op);
    }
    sys->txns.push_back(t);
  }

  auto wal = std::make_unique<CountingWal>();
  sys->wal = wal.get();
  sys->db = std::make_unique<storage::Database>(std::move(wal));
  PRESERIAL_CHECK(sys->db->Open().ok());
  Result<storage::Schema> schema = storage::Schema::Create(
      {storage::ColumnDef{"id", storage::ValueType::kInt64, false},
       storage::ColumnDef{"qty", storage::ValueType::kInt64, false}},
      /*primary_key=*/0);
  PRESERIAL_CHECK(schema.ok());
  PRESERIAL_CHECK(sys->db->CreateTable(kTable, std::move(schema).value()).ok());
  sys->svc = std::make_unique<gtm::GtmService>(sys->db.get());
  for (size_t i = 0; i < size.objects; ++i) {
    const storage::Value key = storage::Value::Int(static_cast<int64_t>(i));
    PRESERIAL_CHECK(sys->db
                        ->InsertRow(kTable, storage::Row(
                                                {key, storage::Value::Int(
                                                          kInitialQty)}))
                        .ok());
    sys->object_ids.push_back(StrFormat("%s/%zu", kTable, i));
    PRESERIAL_CHECK(sys->svc->gtm()
                        ->RegisterObject(sys->object_ids.back(), kTable, key,
                                         {1})
                        .ok());
  }
  return sys;
}

struct SoakRep {
  double timed_s = 0;
  int64_t attempted = 0;
  int64_t committed = 0;
  int64_t failed = 0;
  std::vector<double> latency_us;  // Per txn, in completion order.
  int64_t reconciliations = 0;
  gtm::GtmCounters counters;
  int64_t live_end = 0;
  int64_t wal_appends = 0;
  int64_t wal_bytes = 0;
};

SoakRep RunRep(const SoakSize& size, uint64_t seed, RunResult* out) {
  SoakRep rep;
  std::unique_ptr<SoakSystem> sys = Setup(size, seed);

  semantics::Operation table[kNumKinds][kMaxAmount + 1];
  for (int a = 1; a <= kMaxAmount; ++a) {
    table[kAdd][a] = semantics::Operation::Add(storage::Value::Int(a));
    table[kSub][a] = semantics::Operation::Sub(storage::Value::Int(a));
  }
  gtm::GtmService& svc = *sys->svc;
  const int64_t wal_appends0 = sys->wal->appends();
  const int64_t wal_bytes0 = sys->wal->bytes();
  const int64_t recon0 = svc.gtm()->metrics().counters().reconciliations;
  std::vector<int64_t> drained(size.objects, 0);  // Committed sub - add.

  struct Slot {
    int64_t txn = -1;  // Index into sys->txns; -1 = free.
    TxnId id = kInvalidTxnId;
    uint32_t next_op = 0;
    uint64_t begin_ns = 0;
    uint32_t root = kNoRoot;
  };
  Slot slots[kOpenTxns];
  rep.latency_us.reserve(size.txns);
  size_t next_txn = 0;
  size_t finished = 0;

  const double start = NowS();
  while (finished < size.txns) {
    for (Slot& s : slots) {
      if (s.txn < 0) {
        if (next_txn == size.txns) continue;
        s.txn = static_cast<int64_t>(next_txn++);
        s.next_op = 0;
        s.begin_ns = NowNs();
        if (g_tracer != nullptr) {
          s.root = g_tracer->OpenRoot();
          g_tracer->SetRoot(s.root);
        }
        ScopedSpan span(kSpanSvcBegin);
        s.id = svc.Begin();
        continue;
      }
      if (g_tracer != nullptr) g_tracer->SetRoot(s.root);
      const SoakTxn& t = sys->txns[static_cast<size_t>(s.txn)];
      if (s.next_op < t.num_ops) {
        const SoakOp& op = sys->ops[t.first_op + s.next_op++];
        const gtm::ObjectId& oid = sys->object_ids[op.object];
        Status st;
        if (op.kind == kRead) {
          ScopedSpan span(kSpanSvcRead);
          st = svc.Read(s.id, oid, 0).status();
        } else {
          ScopedSpan span(kSpanSvcInvoke);
          st = svc.Invoke(s.id, oid, 0, table[op.kind][op.amount]);
        }
        if (!st.ok()) ++rep.failed;
        continue;
      }
      Status st;
      if (t.cancel) {
        ScopedSpan span(kSpanSvcAbort);
        st = svc.Abort(s.id);
      } else {
        ScopedSpan span(kSpanSvcCommit);
        st = svc.Commit(s.id);
      }
      rep.latency_us.push_back(static_cast<double>(NowNs() - s.begin_ns) *
                               1e-3);
      if (g_tracer != nullptr) g_tracer->CloseRoot(s.root);
      ++rep.attempted;
      if (!st.ok()) {
        ++rep.failed;
      } else if (!t.cancel) {
        ++rep.committed;
        for (uint32_t k = 0; k < t.num_ops; ++k) {
          const SoakOp& op = sys->ops[t.first_op + k];
          if (op.kind == kSub) drained[op.object] += op.amount;
          if (op.kind == kAdd) drained[op.object] -= op.amount;
        }
      }
      s.txn = -1;
      ++finished;
    }
  }
  rep.timed_s = NowS() - start;
  rep.counters = svc.gtm()->metrics().counters();
  rep.reconciliations = rep.counters.reconciliations - recon0;
  rep.live_end = static_cast<int64_t>(svc.gtm()->live_transaction_count());
  rep.wal_appends = sys->wal->appends() - wal_appends0;
  rep.wal_bytes = sys->wal->bytes() - wal_bytes0;

  // Gate: the LDBS quantity drained equals the committed subtractions (net
  // of committed additions), object by object.
  Result<storage::Table*> tbl = sys->db->GetTable(kTable);
  PRESERIAL_CHECK(tbl.ok());
  for (size_t i = 0; i < size.objects; ++i) {
    Result<storage::Value> qty = tbl.value()->GetColumnByKey(
        storage::Value::Int(static_cast<int64_t>(i)), 1);
    const int64_t got = qty.ok() ? kInitialQty - qty.value().as_int() : -1;
    out->Check(qty.ok() && got == drained[i],
               StrFormat("soak: object %zu drained %lld, committed net %lld", i,
                         static_cast<long long>(got),
                         static_cast<long long>(drained[i])));
  }
  out->Check(rep.failed == 0,
             StrFormat("soak: %lld calls failed",
                       static_cast<long long>(rep.failed)));
  out->attempted += rep.attempted;
  out->failed += rep.failed;
  return rep;
}

double SetupOnly(const SoakSize& size, uint64_t seed) {
  const double t0 = NowS();
  std::unique_ptr<SoakSystem> sys = Setup(size, seed);
  return NowS() - t0;
}

double Tps(const SoakRep& r) {
  return r.timed_s > 0 ? static_cast<double>(r.committed) / r.timed_s : 0;
}

}  // namespace

RunResult RunSoak(const RunConfig& cfg) {
  RunResult out;
  const SoakSize size = SizeFor(cfg);
  // Warm-up rep at smoke size, so the first measured rep does not pay for
  // cold caches and allocator growth. Its gates count like any other.
  (void)RunRep(kTinySize, cfg.seed, &out);
  std::vector<SoakRep> reps;
  auto run_rep = [&](int) {
    reps.push_back(RunRep(size, cfg.seed, &out));
    return reps.back().timed_s;
  };

  if (!cfg.trace) {
    std::vector<double> setup, tps, latency;
    DriftMeter drift;
    const double peak_rss_mb = RunReps(
        cfg.seconds, 2, run_rep, [&] { return SetupOnly(size, cfg.seed); },
        &setup);
    int64_t attempted = 0, committed = 0;
    for (SoakRep& r : reps) {
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
    out.Note(StrFormat("soak: %zu reps of %zu txns; latency samples %zu",
                       reps.size(), size.txns, latency.size()));
    return out;
  }

  RunReps(cfg.seconds / 2, 1, run_rep);
  std::vector<double> untraced;
  for (const SoakRep& r : reps) untraced.push_back(Tps(r));
  const SpanSummary spans = WithTracer(cfg.spans_out, 16 * size.txns, [&] {
    run_rep(0);
  });
  const double traced = Tps(reps.back());
  // Counts repeat exactly from rep to rep: the first one will do.
  const SoakRep& r0 = reps.front();
  const std::vector<double> commit_us = spans.Durations({kSpanSvcCommit});
  const std::vector<double> invoke_us = spans.Durations({kSpanSvcInvoke});
  const double per_commit =
      r0.committed > 0 ? 1.0 / static_cast<double>(r0.committed) : 0;
  out.Add("gtm.commit_us_p50", Quantile(commit_us, 0.50), "us");
  out.Add("gtm.commit_us_p99", Quantile(commit_us, 0.99), "us");
  out.Add("gtm.invoke_us_p50", Quantile(invoke_us, 0.50), "us");
  out.Add("gtm.invoke_us_p99", Quantile(invoke_us, 0.99), "us");
  const gtm::GtmCounters& c = r0.counters;
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
  out.Add("semantics.reconciliations_per_commit",
          static_cast<double>(r0.reconciliations) * per_commit, "count");
  out.Add("storage.wal_bytes_per_commit",
          static_cast<double>(r0.wal_bytes) * per_commit, "B");
  out.Add("storage.wal_appends_per_commit",
          static_cast<double>(r0.wal_appends) * per_commit, "count");
  out.Add("storage.wal_busy_s",
          spans.Total({kSpanWalAppend, kSpanWalSync}), "s");
  out.Add("obs.bench_trace_overhead_pct",
          TraceOverheadPct(Median(untraced), traced), "%");
  out.Note(StrFormat("soak traced: %lld spans, %lld dropped; commit samples "
                     "%zu",
                     static_cast<long long>(spans.spans),
                     static_cast<long long>(spans.dropped), commit_us.size()));
  return out;
}

}  // namespace perfbench
