#!/usr/bin/env python3
"""Tests of the benchmark harness itself.

    python3 perfbench/test_harness.py

Builds the harness (through run.py) and checks:
  * the percentile, mean, geometric-mean and span self-time math on known
    vectors (the harness's --self-test);
  * the metric names and units the harness declares match BENCHMARK.json,
    in order;
  * a short run of one workload prints, as its last line, a result whose
    metric names are exactly BENCHMARK.json's, in both the timed
    (--trace 0) and the traced (--trace 1) mode.
"""
import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args):
    return subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True, timeout=900)


class HarnessTest(unittest.TestCase):
    def test_self_test(self):
        proc = run(["--self-test"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("self-test: 0 failure(s)", proc.stdout)

    def test_declared_metrics_match_benchmark_json(self):
        proc = run(["--list-metrics"])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        declared = json.loads(proc.stdout.strip().splitlines()[-1])
        bench = load_benchmark()
        self.assertEqual(declared["workloads"], [w["name"] for w in bench["workloads"]])
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(declared[kind],
                             [{"name": m["name"], "unit": m["unit"]} for m in bench[kind]])

    def test_result_line_names_match_benchmark_json(self):
        bench = load_benchmark()
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(["--workload", "point_serving", "--seed", "7", "--seconds", "1",
                        "--trace", str(trace)])
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            self.assertEqual(list(result["metrics"]), [m["name"] for m in bench[kind]])
            for m in bench[kind]:
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_seed_is_echoed(self):
        proc = run(["--workload", "point_serving", "--seed", "11", "--seconds", "1",
                    "--trace", "0"])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("seed=11", proc.stdout)


if __name__ == "__main__":
    unittest.main()
