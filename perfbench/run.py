#!/usr/bin/env python3
"""DualTable benchmark: build the harness from this checkout, run one workload.

    python3 perfbench/run.py --workload tpch_scan_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test      # harness math checks
    python3 perfbench/run.py --list-metrics   # metric names and units (JSON)

The harness is built with CMake from perfbench/CMakeLists.txt, which compiles
the engine straight from src/, into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Build output goes to stderr. The harness's stdout is
passed through; its last line is the JSON result. Traced runs (--trace 1)
also write their spans to trace-<workload>-seed<n>.jsonl in the build
directory.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("tpch_scan_cold", "update_read_mix", "point_serving")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; leave room for the (no-op) rebuild check.
HARNESS_TIMEOUT_S = 150


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(bdir):
    """Configures (once) and builds the harness; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: engine sources (src/) are missing; cannot build\n")
        return False
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench_harness"]
    return subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_harness(cmd):
    """Runs the harness, relays its stdout, returns its exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: harness timed out after %d s\n" % HARNESS_TIMEOUT_S)
        return 1
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(out)
        sys.stderr.write("perfbench: harness exited %d without a result line\n"
                         % proc.returncode)
        return proc.returncode or 1
    sys.stdout.write(out)
    return 0


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return isinstance(result, dict) and set(result) == RESULT_KEYS


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--list-metrics", action="store_true")
    args = parser.parse_args()
    measuring = not (args.self_test or args.list_metrics)
    if measuring and (None in (args.workload, args.seed, args.seconds, args.trace)
                      or args.seed < 0 or args.seconds <= 0):
        parser.error("--workload, --seed >= 0, --seconds > 0 and --trace are required")

    bdir = build_dir()
    if not build(bdir):
        return 2
    exe = os.path.join(bdir, "perfbench_harness")
    if args.self_test:
        return subprocess.run([exe, "--self-test"], cwd=ROOT).returncode
    if args.list_metrics:
        return subprocess.run([exe, "--list-metrics"], cwd=ROOT).returncode

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(bdir, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))]
    # Relayed through a pipe, so a failed run prints no result line at all.
    return run_harness(cmd)


if __name__ == "__main__":
    sys.exit(main())
