#!/usr/bin/env python3
"""hc2ld end-to-end benchmark: build, self-test, run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload city-point --seed 1 --seconds 10 --trace 0

Builds perfbench/ (CMake, Release) into .bench_build/perfbench on first use,
runs the benchmark's self-tests, then runs the perfbench program with the
workload's fixed configuration from perfbench/workloads.json. Its standard
output is passed through; the last line is one JSON object with the keys
correct, attempted, failed and metrics (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1). Exits non-zero, without a
result line, when the build or a self-test fails, and non-zero after the
result line when an answer was wrong.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment():
    # Compiler and run temporaries stay inside the checkout.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return {**os.environ, "TMPDIR": str(tmp)}


def build():
    if not (ROOT / "src" / "api" / "router.cc").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    if (BUILD / "CMakeCache.txt").is_file():
        steps = steps[1:]
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=environment()).returncode:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    config = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in config["workloads"]:
        fail(f"unknown workload {args.workload!r}; "
             f"known: {', '.join(config['workloads'])}")
    settings = {**config["common"], **config["workloads"][args.workload]}

    build()
    if subprocess.run([str(BUILD / "perfbench_selftest")], stdout=sys.stderr,
                      stderr=sys.stderr, env=environment()).returncode:
        fail("self-test failed")

    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", str(ROOT / ".bench_build" / "perfbench-work")]
    for key, value in settings.items():
        command += [f"--{key}", str(value)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, env=environment())
    except subprocess.TimeoutExpired as timeout:
        sys.stderr.write(timeout.stdout or "")
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        fail(f"perfbench exited with {run.returncode} and no result")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
