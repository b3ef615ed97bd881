#!/usr/bin/env python3
"""Repeats the benchmark and reports how well each figure repeats.

Usage, from the repository root:

  python3 perfbench/spread.py --workloads cold,zipf_swap --seeds 1-10 \
      [--seconds 20] [--trace 0] [--json spread.json]

Runs perfbench/run.py once per (workload, seed), then prints, for every
end-to-end metric, the median, the quartiles and the spread (quartile
distance over the median, as statistics.quantiles(values, n=4) gives the
quartiles). It also prints the same spread for each candidate statistic of
the per-unit time distributions (p1, p2, p5, p10, p20, p25, p50 of
TrainStep and request latency, whole-Fit wall time, users/s), read from the
reference figures each run writes to .bench_out/details/. README.md's
tables come from this output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("nan"),
            "min": min(values), "max": max(values)}


def details_figures(details):
    """Candidate statistics from one run's reference figures."""
    out = {}
    for method, fits in details["methods"].items():
        for q in ("p01", "p02", "p05", "p10", "p20", "p25", "p50"):
            out["%s.step_us.%s" % (method, q)] = fits["step_us"][q]
        for name in ("fit_ms", "fit_utime_s", "fit_stime_s", "proc_minflt"):
            out["%s.%s" % (method, name)] = statistics.median(fits[name])
    serve = details["serve"]
    for q in ("p01", "p02", "p05", "p10", "p20", "p25", "p50", "p99"):
        out["latency_us." + q] = serve["latency_us"][q]
    out["users_per_s"] = serve["users_per_s"]
    if serve["publish_ms"]:
        out["publish_ms.p50"] = serve["publish_ms"]["p50"]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="cold,zipf_swap")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json")
    args = parser.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        runs, figures = [], []
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print("%s seed %d failed" % (workload, seed), file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append(result)
            path = os.path.join(ROOT, ".bench_out", "details",
                                "%s_s%d_t%d.json" % (workload, seed,
                                                     args.trace))
            with open(path) as f:
                figures.append(details_figures(json.load(f)))
            print("%s seed %d: %s" % (workload, seed, json.dumps(result)),
                  file=sys.stderr)
        rows = {}
        for name in runs[0]["metrics"]:
            rows[name] = spread([r["metrics"][name]["value"] for r in runs])
        reference = {name: spread([f[name] for f in figures])
                     for name in figures[0]}
        report[workload] = {
            "runs": len(runs),
            "failed_share": [r["failed"] / r["attempted"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": rows, "reference": reference}
        print("== %s (%d runs, all correct: %s, failed: %s)" % (
            workload, len(runs), report[workload]["correct"],
            sorted({r["failed"] for r in runs})))
        for title, table in (("metric", rows), ("reference", reference)):
            print("  %-28s %12s %12s %12s %8s" % (title, "median", "q1", "q3",
                                                 "spread"))
            for name, s in table.items():
                print("  %-28s %12.6g %12.6g %12.6g %7.2f%%" % (
                    name, s["median"], s["q1"], s["q3"], 100 * s["spread"]))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
