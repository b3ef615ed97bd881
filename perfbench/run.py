#!/usr/bin/env python3
"""Builds the dtrec benchmark harness and runs one workload.

Usage, from the repository root:

  python3 perfbench/run.py --workload <cold|zipf_swap> --seed <n> \
      --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first call configures and builds the library (the repository's
CMakeLists.txt with its default options) and the harness into
.bench_build/perfbench; later calls only re-check the build. Inputs, fit
results, reference figures and traces go to .bench_out/. The last line of
standard output is the run's JSON result; build output and diagnostics go
to standard error. --self-test builds and runs the tests of the
benchmark's own output checks.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

START = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Relative to ROOT, the harness's working directory: path lengths reach the
# fit children's allocation history, so they must not depend on where the
# checkout lives.
OUT = ".bench_out"
# A run, build check included, ends within this many seconds.
RUN_BUDGET_S = 175
BUILD_BUDGET_S = 850
JOBS = "4"


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("timed out: " + " ".join(cmd), file=sys.stderr)
        return False
    return done.returncode == 0


def build(target):
    # The Makefile exists only after a configure that succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        if not run_logged(["cmake", "-S", HERE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_BUDGET_S):
            return False
    return run_logged(["cmake", "--build", BUILD, "--target", target,
                       "-j", JOBS], BUILD_BUDGET_S)


def run_harness(args):
    cmd = [os.path.join(BUILD, "perfbench_harness"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    budget = max(1.0, RUN_BUDGET_S - (time.monotonic() - START))
    # Own process group, so a timeout also stops the fit children.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("harness timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("harness exited with %d" % proc.returncode, file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("harness printed no result", file=sys.stderr)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("malformed result: %s" % lines[-1], file=sys.stderr)
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["cold", "zipf_swap"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build("perfbench_checks_test"):
            return 1
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_checks_test")]).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in 1..120")
    if not build("perfbench_harness"):
        print("build failed", file=sys.stderr)
        return 1
    result = run_harness(args)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
