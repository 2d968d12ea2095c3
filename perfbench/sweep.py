#!/usr/bin/env python3
"""Runs each workload N times and prints the spread of every metric.

    python3 perfbench/sweep.py [--runs 10] [--workloads a,b] [--seconds S]
                               [--trace 0|1]

Run from the root of a checkout. Run i (from 1) uses seed i. For every
metric it prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), min and max, and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json, so the
bounds can be derived again on another host. A row is marked "wide" when
its spread exceeds a third of the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                       proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {}
        shares = set()
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, args.seconds, args.trace)
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("  %s seed %d: %s" % (
                workload, seed,
                " ".join("%s=%.4g" % (n, m["value"])
                         for n, m in result["metrics"].items())),
                file=sys.stderr)
        print("\n%s: %d runs of %d s, failed share %s" %
              (workload, args.runs, args.seconds, sorted(shares)))
        print("%-36s %12s %12s %12s %12s %12s %7s %6s" %
              ("metric", "median", "q1", "q3", "min", "max", "spread",
               "bound"))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4)
                         if len(vals) > 1 else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "wide"
            print("%-36s %12.6g %12.6g %12.6g %12.6g %12.6g %7.3f %6s %s" %
                  (name, med, q1, q3, min(vals), max(vals), spread,
                   "-" if bound is None else bound, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
