#!/usr/bin/env python3
"""Builds the benchmark from the enclosing checkout and runs one workload.

Usage, from the root of a miniself checkout:

    python3 perfbench/run.py --workload <paper|apps|storm|evalchurn> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/ (configured once, then brought up to date
on every run); a traced run writes its spans next to it. The last line of
standard output is the result JSON printed by the benchmark binary.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper", "apps", "storm", "evalchurn")


def build():
    """Configures (first run only) and builds; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The benchmark measures the checkout it sits in; alone it has nothing
    # to build.
    for need in ("src/driver/vm.h", "bench/suites.cpp"):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit("perfbench: %s not found: run from a miniself checkout"
                     % need)

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, "spans-%s.jsonl" % args.workload)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
