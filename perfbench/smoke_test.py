#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

Run from the root of the source tree. Every workload runs untraced and
traced at smoke sizes (8-queens, 2-ply minimax, a 0.05 s siege phase). Each
run must exit 0, print the environment block, and end with a result object
that is correct and names every metric BENCHMARK.json lists for that mode,
each with its unit. A queens-fine run checked against a wrong expected
answer must be reported as failed and exit non-zero. Exits 1 on the first
problem.
"""

import json
import subprocess
import sys

ENV_KEYS = {"nproc", "recommended_domain_count", "ocaml_version", "revision",
            "busy_domains", "oversubscribed"}


def run(bench, workload, trace, *extra):
    cmd = bench["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", "0.1", "--trace", str(trace),
                              "--tiny", *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError(f"{' '.join(cmd)}: no result printed")
    env_line, result_line = lines[-2], lines[-1]
    if not env_line.startswith("environment "):
        raise AssertionError(f"{workload}: no environment block before the result")
    missing = ENV_KEYS - set(json.loads(env_line[len("environment "):]))
    if missing:
        raise AssertionError(f"{workload}: environment lacks {sorted(missing)}")
    result = json.loads(result_line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    return out.returncode, result


def check_metrics(workload, trace, result, expected):
    got = result["metrics"]
    if set(got) != set(expected):
        raise AssertionError(
            f"{workload} trace {trace}: missing {sorted(set(expected) - set(got))}, "
            f"unexpected {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        value = got[name]
        if value.get("unit") != unit or not isinstance(value.get("value"), (int, float)):
            raise AssertionError(f"{workload}: {name} printed as {value}, unit {unit}")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in (w["name"] for w in bench["workloads"]):
        for trace, expected in modes.items():
            code, result = run(bench, w, trace)
            if code != 0 or not result["correct"] or result["failed"] != 0:
                raise AssertionError(f"{w} trace {trace}: exit {code}, result {result}")
            if result["attempted"] < 1:
                raise AssertionError(f"{w} trace {trace}: nothing attempted")
            check_metrics(w, trace, result, expected)
            print(f"ok  {w} trace {trace}: {len(expected)} metrics, "
                  f"{result['attempted']} operations")
    code, result = run(bench, "queens-fine", 0, "--wrong-answer")
    if code == 0 or result["correct"] or result["failed"] < 1:
        raise AssertionError(f"wrong expected answer not reported: exit {code}, {result}")
    print(f"ok  wrong expected answer reported: exit {code}, "
          f"{result['failed']} of {result['attempted']} failed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}")
        sys.exit(1)
