#!/usr/bin/env python3
"""Runs one workload on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload tpch-recovery --seeds 1-10 \
        --seconds 25 [--trace 0]

For every metric it prints the median over the seeds, the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median, and the values themselves. Use it to check that the
benchmark is steady: each end-to-end spread should stay well inside the
metric's bound in BENCHMARK.json. With --trace 0 it also prints the same
for the raw wall times (names ending in `.wall`) and the host factor, read
from each run's result file. Runs are sequential, one process each.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    bounds = {}
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        for metric in json.load(f)["end_to_end"]:
            bounds[metric["name"]] = metric["bound"]

    values = {}
    for seed in seeds_of(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", args.trace],
            capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                               or ".bench_build", "perfbench-out")
        stem = f"{args.workload}-seed{seed}-trace{args.trace}.json"
        with open(os.path.join(out_dir, stem)) as f:
            record = json.load(f)
        for name, metric in record.get("wall_metrics", {}).items():
            values.setdefault(name + ".wall", []).append(metric["value"])
        if "host_factor" in record["metadata"]:
            values.setdefault("host_factor", []).append(
                record["metadata"]["host_factor"])
        print(f"seed {seed}: attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    print(f"{'metric':32} {'median':>12} {'iqr/med':>8} {'bound':>6}  values")
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name, "")
        print(f"{name:32} {med:12.6g} {spread:8.3f} {bound!s:>6}  "
              + " ".join(f"{v:.4g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
