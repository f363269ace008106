#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ring --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the checkout's src/) into
.bench_build/perfbench, runs the benchmark's arithmetic self-tests, then
runs one benchmark pass and prints its output. The last line of standard
output is the JSON result; its metric names are checked against
BENCHMARK.json before it is printed. Exits non-zero, printing no result,
when the build, the self-tests or the run fail.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
RUN_TIMEOUT_S = 170
# Compiler and library temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no library sources: {os.path.join(ROOT, 'src')} is missing")
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr so that stdout ends with the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=ENV).returncode:
            fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    build()
    selftest = subprocess.run(
        [os.path.join(BUILD_DIR, "perfbench_selftest")],
        stdout=sys.stderr, stderr=sys.stderr, env=ENV)
    if selftest.returncode:
        fail("arithmetic self-tests failed")

    os.makedirs(WORK_DIR, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", WORK_DIR]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True, env=ENV)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if result is None:
        sys.stdout.write(run.stdout)
        fail(f"benchmark printed no result (exit code {run.returncode})")
    missing = expected_metrics(args.trace == "1") - set(result["metrics"])
    extra = set(result["metrics"]) - expected_metrics(args.trace == "1")
    if missing or extra:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
             f"unlisted {sorted(extra)}")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
