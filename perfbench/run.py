#!/usr/bin/env python3
"""Builds and runs the ahfic repository benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --make-reference perfbench/reference.json

Workloads: table1_ring, ft_montecarlo, daemon_mix (see perfbench/README.md).
The first call configures and builds perfbench/CMakeLists.txt (the
libraries under src/ plus the benchmark executable, Release) into
.bench_build/perfbench; later calls only rebuild what changed. Build
output goes to stderr; the last stdout line is the result JSON.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "ahfic_perfbench")
WORKLOADS = ("table1_ring", "ft_montecarlo", "daemon_mix")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "ahfic_perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", metavar="FILE")
    args = ap.parse_args()
    if not args.make_reference and not args.workload:
        ap.error("--workload is required")

    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed (%s)" % e)

    if args.make_reference:
        cmd = [EXE, "--make-reference", os.path.abspath(args.make_reference)]
    else:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--reference", os.path.join(HERE, "reference.json"),
               "--spans-dir", spans]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
