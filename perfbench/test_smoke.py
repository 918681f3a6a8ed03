#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced. Asserts that each run exits 0, that every correctness gate passed,
that every metric BENCHMARK.json declares for the mode appears with its
unit, and that no end-to-end metric is 0.

    python3 perfbench/test_smoke.py        (from the root of a checkout)

Builds through run.py on first use, like a benchmark run.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (run.py: metric lists and units)


def run_tiny(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", trace, "--tiny"],
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=run.BUILD_TIMEOUT_S + run.RUN_TIMEOUT_S)
    return done.returncode, done.stdout, done.stderr


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        code, out, err = run_tiny(workload, trace)
        self.assertEqual(code, 0, msg=err[-4000:])
        result = json.loads(out.strip().split("\n")[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], msg=err[-4000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        e2e_units, layer_units = run.declared_units()
        units = layer_units if trace == "1" else e2e_units
        self.assertEqual(list(result["metrics"]), list(units))
        for name in units:
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], units[name], msg=name)
            self.assertIsInstance(metric["value"], (int, float), msg=name)
        if trace == "0":  # End-to-end metrics are never 0.
            for name in units:
                self.assertNotEqual(result["metrics"][name]["value"], 0,
                                    msg=name)


def _add_cases():
    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            def case(self, workload=workload, trace=trace):
                self.check(workload, trace)
            setattr(SmokeTest, "test_%s_trace%s" % (workload, trace), case)


_add_cases()

if __name__ == "__main__":
    unittest.main()
