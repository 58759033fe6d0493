#!/usr/bin/env python3
"""Steadiness check: run each workload with several seeds and report, for
every end-to-end metric, its median, quartiles and spread, the spread being
the distance between the first and third quartile as a share of the median.

Run from the repository root:

    python3 layerbench/steadiness.py                   # every workload, 10 seeds
    python3 layerbench/steadiness.py --workloads serve_direct --runs 5

Run n uses seed n. The bounds come from BENCHMARK.json. A metric whose
spread exceeds its bound fails the check (exit status 1); a spread below a
third of the bound is reported as steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds)
                for seed in range(1, args.runs + 1)]
        print(f"\n{workload}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>8}")
        for name, bound in bounds.items():
            stats = summarize([run[name] for run in runs])
            if stats["spread"] <= bound / 3:
                verdict = "steady"
            elif stats["spread"] <= bound:
                verdict = "within bound"
            else:
                verdict = "UNSTEADY"
                ok = False
            print(f"  {name:<16} {stats['median']:12.6g} {stats['q1']:12.6g} "
                  f"{stats['q3']:12.6g} {stats['spread']:8.2%} {bound:8.2g} "
                  f"{verdict}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
