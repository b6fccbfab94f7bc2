#!/usr/bin/env python3
"""Run each workload N times and print the spread of every metric.

Usage, from the repository root:

    python3 perfbench/spread.py --runs 10 [--workloads paper_table,serve_ensemble]
                                [--seconds S] [--trace 0|1] [--first-seed 1]

Each run uses the next seed. For every metric it prints the median,
the quartiles (Python's `statistics.quantiles(values, n=4)`), min/max
and the quartile distance as a share of the median, next to the
metric's bound from BENCHMARK.json. It also prints each run's failed
share, which must be identical across runs. A JSON summary per
workload goes to `.bench_out/spread-<workload>-trace<T>.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main() -> int:
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(".bench_out", exist_ok=True)
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            run = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", args.trace],
                capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            results.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']} "
                  f"correct {result['correct']}", file=sys.stderr)
        print(f"\n{workload} ({args.runs} runs, {args.seconds} s, trace {args.trace})")
        print(f"{'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} "
              f"{'iqr/med':>8} {'bound':>6}")
        summary = {"failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
                   "metrics": {}}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "min": min(values),
                                        "max": max(values), "spread": spread, "values": values}
            print(f"{name:<26} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {min(values):>12.6g} "
                  f"{max(values):>12.6g} {spread:>8.4f} {bound if bound is not None else '-':>6}")
        print(f"failed share per run: {summary['failed_share']}")
        with open(f".bench_out/spread-{workload}-trace{args.trace}.json", "w") as f:
            json.dump(summary, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
