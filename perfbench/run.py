#!/usr/bin/env python3
"""Builds and runs the simulator benchmark; see perfbench/README.md.

Usage, from the root of a source tree:

  python3 perfbench/run.py --workload scale_1m --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/CMakeLists.txt into .bench_build (build
output goes to stderr), runs the benchmark binary and prints its result as
one JSON line, the last line of stdout.  Exits non-zero without a result
when the sources are missing, the build fails or the benchmark fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("scale_1m", "cluster_write_shared", "fig07_cifs")


def build():
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no osprof sources next to perfbench/",
              file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    proc = subprocess.run(
        [os.path.join(BUILD_DIR, "perfbench"), f"--workload={args.workload}",
         f"--seed={args.seed}", f"--seconds={args.seconds}",
         f"--trace={args.trace}"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"perfbench: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return 2
    print(json.dumps(json.loads(proc.stdout)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
