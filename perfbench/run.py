#!/usr/bin/env python3
"""Whole-study benchmark of the GenDPR federation.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles ../src) in Release under
.bench_build/perfbench, then runs one workload with perfbench_study. Build
output goes to stderr; the last stdout line is the JSON result. Further
arguments (--smoke, --wrong-oracle) are passed to the binary; selftest.py
uses them.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_study")
# A run must end within 180 s; the binary gets what the build leaves.
RUN_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ):
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run(
            [BINARY] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S
        ).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
