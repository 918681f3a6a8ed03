// The four benchmark workloads. Each builds its inputs from cfg.seed, runs
// reps of a fixed op stream for cfg.seconds, checks its correctness gates on
// every rep, and returns the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run). See NOTES.md for the workload rationale.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

RunResult RunSoak(const RunConfig& cfg);
RunResult RunMobile(const RunConfig& cfg);
RunResult RunCluster(const RunConfig& cfg);
RunResult RunReplicated(const RunConfig& cfg);

// Planned user cancellations: every kCancelEvery-th transaction of the
// soak, cluster and replicated streams ends in an abort by the client, so
// abort_pct has a known non-zero floor (100 / kCancelEvery) and anything
// above it is a failure.
inline constexpr int kCancelEvery = 50;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
