#!/usr/bin/env python3
"""Builds and runs the DrugTree benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
                           --trace <0|1>
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the DrugTree
libraries from src/) into .bench_build/ with CMake in Release mode; later
calls only rebuild what changed. Build output goes to stderr. The benchmark's
result JSON is the last line of stdout. Traced runs write their spans to
.bench_out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 1
    if argv == ["--selftest"]:
        binary = os.path.join(BUILD, "perfbench_inputs_test")
        return subprocess.run([binary]).returncode
    binary = os.path.join(BUILD, "drugtree_bench")
    return subprocess.run([binary] + argv + ["--out-dir", OUT]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
