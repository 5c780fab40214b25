#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

Usage (from the repository root):
  python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                              [--seconds S] [--trace 0|1]

For every metric it prints the median over the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.
Exits 1 if a run fails or reports correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    for k in range(args.runs):
        seed = args.first_seed + k
        cmd = bench["command"] + ["--workload", args.workload,
                                  "--seed", str(seed),
                                  "--seconds", str(seconds),
                                  "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("seed %d: exit %d" % (seed, out.returncode))
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(out.stdout)
            sys.exit("seed %d: correct=%s failed=%d" %
                     (seed, result["correct"], result["failed"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d done" % seed, file=sys.stderr)

    print("%-30s %14s %8s %8s %s" % ("metric", "median", "iqr/med", "bound",
                                     "unit"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [0, 0, 0]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  <-- wide"
        print("%-30s %14.6g %8.4f %8s %s%s" %
              (name, med, spread, "-" if bound is None else bound,
               units[name], flag))
        print("    " + " ".join("%.5g" % v for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
