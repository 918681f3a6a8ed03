#!/usr/bin/env python3
"""Builds and runs the preserial benchmark for one workload and one seed.

    python3 perfbench/run.py --workload soak|mobile|cluster|replicated \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout. The first call configures and builds the
library from src/ plus the perfbench binary into $CARGO_TARGET_DIR (default
.bench_build)/perfbench; later calls rebuild incrementally. The binary's
stdout is passed through; its last line is one JSON object
{"correct", "attempted", "failed", "metrics"}. This script checks that the
binary reported exactly the metrics the workload measures, with the units
BENCHMARK.json declares, and exits non-zero when the build fails, a
correctness gate fails or the output does not match.

Every run reports every metric BENCHMARK.json declares for its mode: all
end-to-end metrics untraced, all per-layer metrics traced. A workload
measures every end-to-end metric. A per-layer metric of a layer that the
workload never calls is reported as 0, added here (PER_LAYER lists what
each workload measures).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["soak", "mobile", "cluster", "replicated"]

# The per-layer metrics each workload measures in its traced run. Units
# come from BENCHMARK.json.
PER_LAYER = {
    "soak": ["gtm.commit_us_p50", "gtm.commit_us_p99", "gtm.invoke_us_p50",
             "gtm.invoke_us_p99", "gtm.waits", "gtm.shared_grant_ratio",
             "gtm.awake_aborts", "gtm.deadlock_refusals", "gtm.live_txns_end",
             "semantics.reconciliations_per_commit",
             "storage.wal_bytes_per_commit", "storage.wal_appends_per_commit",
             "storage.wal_busy_s", "obs.bench_trace_overhead_pct"],
    "mobile": ["gtm.commit_us_p50", "gtm.commit_us_p99", "gtm.invoke_us_p50",
               "gtm.invoke_us_p99", "gtm.sleep_awake_us_p99",
               "gtm.sweep_busy_s", "gtm.busy_share", "gtm.waits",
               "gtm.shared_grant_ratio", "gtm.awake_aborts",
               "gtm.deadlock_refusals", "gtm.live_txns_end",
               "storage.wal_bytes_per_commit",
               "storage.wal_appends_per_commit", "workload.runner_self_s",
               "sim.events", "sim.events_per_s", "mobile.retries",
               "mobile.degraded_to_sleep", "mobile.duplicates_suppressed",
               "virtual_latency_p50_s", "virtual_latency_p99_s",
               "sleeper_abort_pct", "obs.bench_trace_overhead_pct"],
    "cluster": ["cluster.invoke_us_p99", "cluster.commit_1pc_us_p99",
                "cluster.commit_2pc_us_p50", "cluster.commit_2pc_us_p99",
                "cluster.coord_wal_bytes_per_2pc", "cluster.contention_factor",
                "cluster.coordinator_aborts", "obs.bench_trace_overhead_pct"],
    "replicated": ["replica.commit_us_p99", "replica.pump_us_p50",
                   "replica.pump_us_p99", "replica.pump_busy_share",
                   "replica.lag_max_records", "obs.bench_trace_overhead_pct"],
}

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return False
    return True


def declared_units():
    """(end-to-end, per-layer) name -> unit maps, in BENCHMARK.json order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measured(workload, traced):
    """The metrics the binary reports for a workload in one mode."""
    return PER_LAYER[workload] if traced else list(declared_units()[0])


def check_result(result, workload, traced):
    """Returns a list of problems with the result line (empty when fine)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys: %s" % sorted(result))
        return problems
    e2e_units, layer_units = declared_units()
    units = layer_units if traced else e2e_units
    expected = measured(workload, traced)
    if sorted(result["metrics"]) != sorted(expected):
        problems.append("metrics %s, expected %s"
                        % (sorted(result["metrics"]), sorted(expected)))
    for name, metric in result["metrics"].items():
        if units.get(name) != metric.get("unit"):
            problems.append("%s: unit %r, BENCHMARK.json says %r"
                            % (name, metric.get("unit"), units.get(name)))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def complete(result, traced):
    """Reports every declared metric of the mode, in BENCHMARK.json order:
    a per-layer metric the workload does not measure reads 0."""
    units = declared_units()[1 if traced else 0]
    got = result["metrics"]
    result["metrics"] = {
        name: got.get(name, {"value": 0, "unit": unit})
        for name, unit in units.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (not for measurement)")
    args = parser.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out",
                os.path.join(out_dir, "spans-%s.bin" % args.workload)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: no result line", file=sys.stderr)
        return done.returncode or 5
    problems = check_result(result, args.workload, args.trace == "1")
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    if problems:
        result["correct"] = False
    else:
        complete(result, args.trace == "1")
    print(json.dumps(result))
    sys.stdout.flush()
    if done.returncode != 0:
        return done.returncode
    return 6 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
