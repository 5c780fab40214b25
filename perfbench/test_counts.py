#!/usr/bin/env python3
"""Checks that the benchmark's exact work counts repeat for one seed.

Usage (from the repository root):
  python3 perfbench/test_counts.py [--seed N]

Runs the traced table1_ring and ft_montecarlo workloads twice each with
the same seed and requires identical Newton iterations, accepted and
rejected transient steps, full factorizations, refactorization ratio and
retries, plus the same six-shape Table 1 Newton count (44,734 when this
benchmark was written). Exits 0 on success, 1 on any difference.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("spice.newton_iters", "spice.steps_accepted", "spice.steps_rejected",
         "spice.full_factors", "spice.refactor_ratio", "runner.retries")
SIX_SHAPES = re.compile(r"six Table 1 shapes: (\d+) Newton iterations")


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("%s seed %d: correct=false" % (workload, seed))
    counts = {name: result["metrics"][name]["value"] for name in EXACT}
    six = SIX_SHAPES.search(out.stdout)
    if six:
        counts["six-shape Newton iterations"] = int(six.group(1))
    return counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    ok = True
    for workload in ("table1_ring", "ft_montecarlo"):
        first = run(workload, args.seed)
        second = run(workload, args.seed)
        for name, value in first.items():
            same = second[name] == value
            ok &= same
            print("%-14s %-28s %14s %s" % (workload, name, value,
                                          "ok" if same else
                                          "DIFFERS: %s" % second[name]))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
