// cluster: a threaded cluster::ClusterService over kShards shards, driven in
// a closed loop. Each transaction books one object on a uniformly chosen
// shard; kCrossShare of them also book an object on another shard and commit
// through CommitGlobal (2PC over the coordinator WAL). All ops are compatible
// subtractions, so nothing waits. Shard locks, the coordinator and its WAL do
// the work; sim and mobile are bypassed.
//
// The measured reps use kClientThreads client thread. A second busy client
// thread drew heavy hypervisor steal on a 4-vCPU guest: 7-15 s per 20 s run
// against at most 2 s for one thread. That moved txn_per_s and the p99
// latency by up to 35% in step with the steal. The traced run adds a pass
// with kContendedThreads threads, which feeds cluster.contention_factor.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/service.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "decorators.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace preserial;

constexpr char kTable[] = "resources";
constexpr size_t kShards = 4;
constexpr size_t kObjects = 64;
constexpr size_t kClientThreads = 1;
constexpr size_t kContendedThreads = 2;
constexpr double kCrossShare = 0.2;
constexpr int64_t kInitialQty = int64_t{1} << 50;

constexpr size_t kTinyTxns = 4000;

size_t TxnsFor(const RunConfig& cfg) { return cfg.tiny ? kTinyTxns : 120000; }

struct ClusterTxn {
  uint8_t shard;
  uint8_t other;  // == shard: single-shard transaction.
  uint16_t object;
  uint16_t other_object;
  bool cancel;
};

// Everything one rep needs. Member order matters: the service refers to the
// cluster and the WAL.
struct ClusterWorld {
  SystemClock clock;
  std::unique_ptr<cluster::GtmCluster> gtm_cluster;
  CountingWal coord_wal;
  std::unique_ptr<cluster::ClusterService> service;
  std::vector<gtm::ObjectId> object_ids;
  std::vector<std::vector<uint16_t>> owned;  // Per shard: object indices.
  std::vector<std::vector<ClusterTxn>> streams;  // Per client thread.
};

std::unique_ptr<ClusterWorld> Setup(size_t txns, size_t threads,
                                    uint64_t seed) {
  auto w = std::make_unique<ClusterWorld>();
  w->gtm_cluster = std::make_unique<cluster::GtmCluster>(kShards, &w->clock);
  Result<storage::Schema> schema = storage::Schema::Create(
      {storage::ColumnDef{"id", storage::ValueType::kInt64, false},
       storage::ColumnDef{"qty", storage::ValueType::kInt64, false}},
      /*primary_key=*/0);
  PRESERIAL_CHECK(schema.ok());
  PRESERIAL_CHECK(
      w->gtm_cluster->CreateTableAllShards(kTable, std::move(schema).value())
          .ok());
  w->owned.resize(kShards);
  for (size_t i = 0; i < kObjects; ++i) {
    w->object_ids.push_back(StrFormat("%s/%zu", kTable, i));
    const cluster::ShardId s = w->gtm_cluster->ShardOf(w->object_ids.back());
    const storage::Value key = storage::Value::Int(static_cast<int64_t>(i));
    PRESERIAL_CHECK(
        w->gtm_cluster->db(s)
            ->InsertRow(kTable,
                        storage::Row({key, storage::Value::Int(kInitialQty)}))
            .ok());
    PRESERIAL_CHECK(
        w->gtm_cluster->RegisterObject(w->object_ids.back(), kTable, key, {1})
            .ok());
    w->owned[s].push_back(static_cast<uint16_t>(i));
  }
  for (size_t s = 0; s < kShards; ++s) PRESERIAL_CHECK(!w->owned[s].empty());
  w->service = std::make_unique<cluster::ClusterService>(w->gtm_cluster.get(),
                                                          &w->coord_wal);

  Rng rng(seed);
  w->streams.resize(threads);
  for (size_t t = 0; t < threads; ++t) {
    std::vector<ClusterTxn>& stream = w->streams[t];
    const size_t n = txns / threads;
    stream.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      ClusterTxn x;
      x.shard = static_cast<uint8_t>(rng.NextBounded(kShards));
      x.other = x.shard;
      if (rng.NextBool(kCrossShare)) {
        x.other = static_cast<uint8_t>(
            (x.shard + 1 + rng.NextBounded(kShards - 1)) % kShards);
      }
      const auto& home = w->owned[x.shard];
      const auto& away = w->owned[x.other];
      x.object = home[rng.NextBounded(home.size())];
      x.other_object = away[rng.NextBounded(away.size())];
      x.cancel = (i % kCancelEvery) == kCancelEvery - 1;
      stream.push_back(x);
    }
  }
  return w;
}

// One client thread's tallies.
struct ClientTally {
  int64_t attempted = 0;
  int64_t committed = 0;
  int64_t cross_committed = 0;
  int64_t failed = 0;
  std::vector<int64_t> booked;  // Per shard: committed units.
  std::vector<double> latency_us;
};

void RunClient(ClusterWorld* w, const std::vector<ClusterTxn>& stream,
               size_t limit, ClientTally* tally) {
  cluster::ClusterService& svc = *w->service;
  const semantics::Operation book =
      semantics::Operation::Sub(storage::Value::Int(1));
  tally->booked.assign(kShards, 0);
  tally->latency_us.reserve(limit);
  for (size_t i = 0; i < limit; ++i) {
    const ClusterTxn& x = stream[i];
    const bool cross = x.other != x.shard;
    const uint64_t begin_ns = NowNs();
    uint32_t root = kNoRoot;
    if (g_tracer != nullptr) {
      root = g_tracer->OpenRoot();
      g_tracer->SetRoot(root);
    }
    TxnId b = kInvalidTxnId, b2 = kInvalidTxnId;
    Status st;
    {
      ScopedSpan span(kSpanClBegin);
      b = svc.Begin(x.shard);
    }
    {
      ScopedSpan span(kSpanClInvoke);
      st = svc.Invoke(x.shard, b, w->object_ids[x.object], 0, book);
    }
    if (st.ok() && cross) {
      {
        ScopedSpan span(kSpanClBegin);
        b2 = svc.Begin(x.other);
      }
      ScopedSpan span(kSpanClInvoke);
      st = svc.Invoke(x.other, b2, w->object_ids[x.other_object], 0, book);
    }
    bool committed = false;
    if (!st.ok() || x.cancel) {
      ScopedSpan span(kSpanClAbort);
      (void)svc.RequestAbort(x.shard, b);
      if (b2 != kInvalidTxnId) (void)svc.RequestAbort(x.other, b2);
    } else if (cross) {
      ScopedSpan span(kSpanClCommitGlobal);
      st = svc.CommitGlobal({{x.shard, b}, {x.other, b2}});
      committed = st.ok();
    } else {
      ScopedSpan span(kSpanClCommit1pc);
      st = svc.RequestCommit(x.shard, b);
      committed = st.ok();
    }
    tally->latency_us.push_back(static_cast<double>(NowNs() - begin_ns) * 1e-3);
    if (g_tracer != nullptr) g_tracer->CloseRoot(root);
    ++tally->attempted;
    if (!st.ok()) ++tally->failed;
    if (committed) {
      ++tally->committed;
      ++tally->booked[x.shard];
      if (cross) {
        ++tally->cross_committed;
        ++tally->booked[x.other];
      }
    }
  }
}

struct ClusterRep {
  double timed_s = 0;
  int64_t attempted = 0;
  int64_t committed = 0;
  int64_t cross_committed = 0;
  std::vector<double> latency_us;  // Threads concatenated.
  int64_t coord_wal_bytes = 0;
  int64_t coordinator_aborts = 0;
};

// Runs `limit` transactions of each of `threads` streams (all of them when
// limit is 0) and checks the gates.
ClusterRep RunRep(size_t txns, size_t threads, size_t limit, uint64_t seed,
                  RunResult* out) {
  ClusterRep rep;
  std::unique_ptr<ClusterWorld> w = Setup(txns, threads, seed);
  if (limit == 0) limit = w->streams[0].size();

  std::vector<ClientTally> tallies(threads);
  const double start = NowS();
  if (threads == 1) {
    RunClient(w.get(), w->streams[0], limit, &tallies[0]);
  } else {
    std::vector<std::thread> clients;
    for (size_t t = 0; t < threads; ++t) {
      clients.emplace_back(RunClient, w.get(), std::cref(w->streams[t]), limit,
                           &tallies[t]);
    }
    for (std::thread& c : clients) c.join();
  }
  rep.timed_s = NowS() - start;

  std::vector<int64_t> booked(kShards, 0);
  int64_t failed = 0;
  for (const ClientTally& t : tallies) {
    rep.attempted += t.attempted;
    rep.committed += t.committed;
    rep.cross_committed += t.cross_committed;
    failed += t.failed;
    for (size_t s = 0; s < kShards; ++s) booked[s] += t.booked[s];
    rep.latency_us.insert(rep.latency_us.end(), t.latency_us.begin(),
                          t.latency_us.end());
  }
  const cluster::ClusterCoordinator::Counters& cc =
      w->service->coordinator().counters();
  rep.coord_wal_bytes = w->coord_wal.bytes();
  rep.coordinator_aborts = cc.aborts;

  // Gates: per-shard conservation (both 2PC branches count on their own
  // shard), and the coordinator committed exactly the cross-shard commits.
  for (size_t s = 0; s < kShards; ++s) {
    Result<storage::Table*> tbl = w->gtm_cluster->db(s)->GetTable(kTable);
    PRESERIAL_CHECK(tbl.ok());
    int64_t drained = 0;
    for (uint16_t i : w->owned[s]) {
      Result<storage::Value> qty =
          tbl.value()->GetColumnByKey(storage::Value::Int(i), 1);
      PRESERIAL_CHECK(qty.ok());
      drained += kInitialQty - qty.value().as_int();
    }
    out->Check(drained == booked[s],
               StrFormat("cluster: shard %zu drained %lld, committed %lld", s,
                         static_cast<long long>(drained),
                         static_cast<long long>(booked[s])));
  }
  out->Check(cc.commits == rep.cross_committed,
             StrFormat("cluster: coordinator commits %lld, cross-shard "
                       "commits %lld",
                       static_cast<long long>(cc.commits),
                       static_cast<long long>(rep.cross_committed)));
  out->Check(failed == 0, StrFormat("cluster: %lld calls failed",
                                    static_cast<long long>(failed)));
  out->attempted += rep.attempted;
  out->failed += failed;
  return rep;
}

double Tps(const ClusterRep& r) {
  return r.timed_s > 0 ? static_cast<double>(r.committed) / r.timed_s : 0;
}

}  // namespace

RunResult RunCluster(const RunConfig& cfg) {
  RunResult out;
  const size_t txns = TxnsFor(cfg);
  // Warm-up rep at smoke size, so the first measured rep does not pay for
  // cold caches and allocator growth. Its gates count like any other.
  (void)RunRep(kTinyTxns, kClientThreads, 0, cfg.seed, &out);
  std::vector<ClusterRep> reps;
  auto run_rep = [&](int) {
    reps.push_back(RunRep(txns, kClientThreads, 0, cfg.seed, &out));
    return reps.back().timed_s;
  };

  if (!cfg.trace) {
    std::vector<double> setup, tps, latency;
    DriftMeter drift;
    auto setup_only = [&] {
      const double t0 = NowS();
      std::unique_ptr<ClusterWorld> w = Setup(txns, kClientThreads, cfg.seed);
      return NowS() - t0;
    };
    const double peak_rss_mb =
        RunReps(cfg.seconds, 3, run_rep, setup_only, &setup);
    int64_t attempted = 0, committed = 0;
    for (const ClusterRep& r : reps) {
      tps.push_back(Tps(r));
      // One client thread: latencies are in completion order.
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
    out.Note(StrFormat("cluster: %zu reps of %zu txns on %zu threads; "
                       "latency samples %zu",
                       reps.size(), txns, kClientThreads, latency.size()));
    return out;
  }

  RunReps(cfg.seconds / 2, 1, run_rep);
  std::vector<double> untraced;
  for (const ClusterRep& r : reps) untraced.push_back(Tps(r));
  const SpanSummary spans = WithTracer(cfg.spans_out, 8 * txns, [&] {
    run_rep(0);
  });
  const double traced = Tps(reps.back());
  // Contended pass: kContendedThreads client threads on the same 4-shard
  // cluster, each over a prefix of its stream.
  const size_t contended_limit = txns / kContendedThreads / 4;
  ClusterRep contended;
  const SpanSummary contended_spans =
      WithTracer("", 8 * contended_limit, [&] {
        contended = RunRep(txns, kContendedThreads, contended_limit, cfg.seed,
                           &out);
      });

  const ClusterRep& r0 = reps.front();
  const int64_t cross = r0.cross_committed;
  const std::vector<double> invoke_us = spans.Durations({kSpanClInvoke});
  const std::vector<double> commit_2pc = spans.Durations({kSpanClCommitGlobal});
  const double uncontended_invoke = Median(invoke_us);
  const double contended_invoke =
      Median(contended_spans.Durations({kSpanClInvoke}));
  out.Add("cluster.invoke_us_p99", Quantile(invoke_us, 0.99), "us");
  out.Add("cluster.commit_1pc_us_p99",
          Quantile(spans.Durations({kSpanClCommit1pc}), 0.99), "us");
  out.Add("cluster.commit_2pc_us_p50", Quantile(commit_2pc, 0.50), "us");
  out.Add("cluster.commit_2pc_us_p99", Quantile(commit_2pc, 0.99), "us");
  out.Add("cluster.coord_wal_bytes_per_2pc",
          cross > 0 ? static_cast<double>(r0.coord_wal_bytes) /
                          static_cast<double>(cross)
                    : 0,
          "B");
  out.Add("cluster.contention_factor",
          uncontended_invoke > 0 ? contended_invoke / uncontended_invoke : 0,
          "ratio");
  out.Add("cluster.coordinator_aborts",
          static_cast<double>(r0.coordinator_aborts), "count");
  out.Add("obs.bench_trace_overhead_pct",
          TraceOverheadPct(Median(untraced), traced), "%");
  out.Note(StrFormat(
      "cluster traced: %lld spans, %lld dropped; 1 thread: %.2f us/txn, "
      "invoke p50 %.2f us; %zu threads: %.2f us/txn wall, invoke p50 %.2f us",
      static_cast<long long>(spans.spans),
      static_cast<long long>(spans.dropped), 1e6 / traced, uncontended_invoke,
      kContendedThreads,
      contended.timed_s * 1e6 / static_cast<double>(contended.attempted),
      contended_invoke));
  return out;
}

}  // namespace perfbench
