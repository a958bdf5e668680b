#!/usr/bin/env python3
"""Measure how far the end-to-end metrics spread across seeds.

    python3 perfbench/spread.py [--runs 10] [--seconds S] [WORKLOAD ...]

Runs the benchmark (untraced) once per seed for each workload, then prints
for every end-to-end metric its median and the distance between the first
and third quartile as a share of the median, next to the metric's bound
from BENCHMARK.json. A spread at or above a third of the bound is marked.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=names)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in args.workloads:
        values = {m: [] for m in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                bench["command"] + ["--workload", w, "--seed", str(seed),
                                    "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                print(f"{w} seed {seed}: run failed ({out.returncode})")
                return 1
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        print(f"== {w} ({args.runs} runs)")
        for m, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med
            mark = "" if spread < bounds[m] / 3 else "  <-- above bound/3"
            if m != "setup_s":
                worst = max(worst, spread / bounds[m])
            print(f"  {m:24s} median {med:14.4f}  spread {spread:6.3f}  "
                  f"bound {bounds[m]:.2f}{mark}")
            print("    " + " ".join(f"{v:.4g}" for v in vs))
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
