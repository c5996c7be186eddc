#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: runs one workload repeatedly, each
run with another seed, and prints for every metric the median, the
quartiles, the interquartile range and (max - min) as shares of the median,
and the metric's bound from BENCHMARK.json.

    python3 perf/spread.py --workload <name> [--runs 10] [--first-seed 1]

Each run measures the end-to-end metrics for BENCHMARK.json's run_seconds.

A metric is steady when its interquartile share stays below a third of its
bound (setup_s is judged by its median alone). The share of failed
operations must be identical in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    units = {}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, os.path.join(PERF_DIR, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print("seed %d: run failed (exit %d)" % (seed, done.returncode))
            return 1
        result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
        shares.append(result["failed"] / result["attempted"])
        # The host reference loop at start and end tells a drifting host
        # from a slow program (README.md, "Host reference").
        reference = [line.split(": ")[1] for line in done.stdout.split("\n")
                     if line.startswith("host reference loop")]
        print("seed %d: correct=%s attempted=%d failed=%d reference=%s %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            "/".join(reference), " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in sorted(result["metrics"].items()))),
            flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print("\n%-34s %-8s %12s %12s %12s %7s %7s %6s" % (
        "metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med",
        "bound"))
    steady = True
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(v) - min(v)) / med if med else 0.0
        bound = bounds[name]
        flag = ""
        if name != "setup_s" and iqr >= bound / 3:
            flag = "  <- above bound/3"
            steady = False
        print("%-34s %-8s %12.6g %12.6g %12.6g %6.1f%% %6.1f%% %6s%s" % (
            name, units[name], med, q1, q3, 100 * iqr, 100 * rng,
            "%g" % bound, flag))
    print("\nfailed share per run: %s" % sorted(set(shares)))
    if len(set(shares)) != 1:
        steady = False
    print("steady" if steady else "NOT steady")
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
