#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload tpch-manygroups --seed 1 \
        --seconds 25 --trace 0

The first call configures and builds an optimized (Release) build under
$CARGO_TARGET_DIR (default .bench_build); later calls only re-check it.
Build output goes to stderr. The program's standard output is passed
through unchanged: its last line is the result JSON. Result files and
traces land in <build dir>/perfbench-out/. The exit code is the program's,
or 2 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return False
    return True


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "perfbench")
    out_dir = os.path.join(ROOT, target, "perfbench-out")
    sys.stdout.flush()
    done = subprocess.run([binary, *sys.argv[1:], "--out", out_dir,
                           "--git-sha", git_sha()], check=False)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
