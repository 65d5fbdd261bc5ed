#!/usr/bin/env python3
"""Build and run the SISA simulator benchmark.

    python3 perfbench/run.py --workload tc-hub --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The first call configures and
builds perfbench/ (which compiles ../src) into .bench_build/perfbench;
later calls rebuild incrementally. The benchmark's result is the last
line of stdout: one JSON object with the keys correct, attempted,
failed and metrics. Build logs and progress go to stderr. Any build
or run failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sisa_perfbench")
WORKLOADS = ("tc-hub", "mc-bk", "serve-mix")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    if args.selftest:
        sys.exit(subprocess.run([BINARY, "--selftest"], cwd=ROOT,
                                timeout=600).returncode)

    spans = os.path.join(BUILD, "spans-%s.csv" % args.workload)
    cmd = [BINARY, args.workload, str(args.seed), repr(args.seconds),
           str(args.trace), spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit("perfbench: run failed with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        sys.exit("perfbench: malformed result line")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
