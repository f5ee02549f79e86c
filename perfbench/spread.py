#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload paper_day --seeds 1 2 3 4 5 [--trace 0]

Runs perfbench/run.py once per seed (run_seconds from BENCHMARK.json) and
prints, per metric, the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (Q3 - Q1) / median next
to the metric's bound from BENCHMARK.json. The spread must stay below the
bound for the benchmark to tell a regression from noise.

    python3 perfbench/spread.py --self-test

checks the quartile and spread arithmetic on known inputs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of numbers."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid if mid else float("inf")


def self_test():
    mid, q1, q3, share = spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (mid, q1, q3) == (5.5, 2.75, 8.25), (mid, q1, q3)
    assert abs(share - 1.0) < 1e-12, share
    mid, q1, q3, share = spread([10.0] * 10)
    assert (mid, q1, q3, share) == (10.0, 10.0, 10.0, 0.0)
    mid, q1, q3, _ = spread([4, 1, 3, 2])
    assert (mid, q1, q3) == (2.5, 1.25, 3.75), (mid, q1, q3)
    print("spread.py self-test: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not args.workload or not args.seeds:
        parser.error("--workload and --seeds are required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    series = {}
    for seed in args.seeds:
        start = time.monotonic()
        done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]),
                               "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} elapsed={time.monotonic() - start:.1f}s", flush=True)
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        if got != expected:
            print(f"  metric names or units differ from BENCHMARK.json: "
                  f"{sorted(set(got.items()) ^ set(expected.items()))}", flush=True)
        for name, metric in result["metrics"].items():
            series.setdefault(name, []).append(metric["value"])
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, values in series.items():
        mid, q1, q3, share = spread(values)
        bound = bounds.get(name)
        flag = "" if bound is None or share < bound / 3 else "  <-- spread >= bound/3"
        print(f"{name:34} {mid:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
