#!/usr/bin/env python3
"""Paired A/B runs of layerbench: a parent ref against a change.

Run from the repository root:

    python3 scripts/ab_pairs.py --base HEAD~1 --seeds 501-510
    python3 scripts/ab_pairs.py --base main \\
        --workloads edge_small serve_direct --seeds 601 602 603 --seconds 5

The parent ref is exported with `git archive` under .bench_build/ab/ (once
per commit) and the change is the working tree. Both sides are built
before any run. Then, for every workload and seed, the script runs one
pair of `layerbench/run.py --workload W --seed S --seconds N --trace 0`,
each side in its own checkout; the side that runs first alternates from
pair to pair. Hypervisor steal is read from /proc/stat around every run
and printed with it.

The summary holds, per workload and end-to-end metric of BENCHMARK.json:
each side's median and quartiles, and the change's wins (pairs in which
the change read better, in the direction BENCHMARK.json gives). It is
printed as a Markdown table in the shape of docs/BENCHMARKS.md. A run
that fails, returns a wrong result bit or reports failed requests stops
the script with exit status 1; for the last two, the error carries the
run's steal reading and its serve-counter line (stalls, retried,
retry_exhausted, rejected_overload).
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

AB_DIR = Path(".bench_build") / "ab"
# How the summary table shows a BENCHMARK.json unit: (scale, label).
SHOWN_AS = {"s": (1000.0, " (ms)"), "us": (1.0, " (µs)")}


def rev_parse(ref: str) -> str:
    return subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
                          check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def export(ref: str) -> Path:
    """A checkout of @p ref's committed files, made once per commit.

    The files are extracted into a temporary directory that is renamed to
    the commit's hash only once `git archive` and `tar` have both
    succeeded, so an interrupted export is never reused.
    """
    sha = rev_parse(ref)
    tree = AB_DIR / sha
    if not tree.is_dir():
        AB_DIR.mkdir(parents=True, exist_ok=True)
        partial = Path(tempfile.mkdtemp(prefix=f".{sha}.", dir=AB_DIR))
        try:
            archive = subprocess.Popen(["git", "archive", sha],
                                       stdout=subprocess.PIPE)
            tar = subprocess.run(["tar", "-x", "-C", str(partial)],
                                 stdin=archive.stdout, check=False)
            archive.stdout.close()
            if archive.wait() != 0 or tar.returncode != 0:
                raise RuntimeError(f"exporting {ref} failed")
            partial.rename(tree)
        finally:
            shutil.rmtree(partial, ignore_errors=True)
    return tree.resolve()


def build(tree: Path) -> None:
    """Build layerbench in @p tree with that tree's own run.py."""
    subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.dont_write_bytecode = True; "
         "sys.path.insert(0, 'layerbench'); import run; run.build()"],
        cwd=tree, check=True, stdout=subprocess.DEVNULL)


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    ticks = [int(v) for v in fields[:8]]  # user .. steal; guest is in user
    return ticks[7], sum(ticks)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    steal0, total0 = cpu_times()
    proc = subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    steal1, total1 = cpu_times()
    steal = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree} {workload} seed {seed}: "
                           f"exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        # The serve counters say whether a stall, a spent retry or a full
        # queue failed the requests, and the steal reading how busy the
        # host was.
        counters = [line.strip() for line in lines
                    if line.strip().startswith("serve stalls")]
        raise RuntimeError(f"{tree} {workload} seed {seed}: "
                           f"steal {steal:.2%}; "
                           f"{'; '.join(counters) or 'no serve counters'}; "
                           f"{lines[-1]}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"metrics": metrics, "steal": steal,
            "attempted": result["attempted"], "failed": result["failed"]}


def parse_seeds(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        first, _, last = item.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def summarize(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def fmt(value: float) -> str:
    if abs(value) >= 10_000:
        return f"{value / 1000:.1f} k"
    if abs(value) >= 100:
        return f"{value:.0f}"
    return f"{value:.3g}"


def print_table(runs: list[dict], workloads: list[str], seeds: list[int],
                end_to_end: list[dict]) -> None:
    """The Markdown summary: one row per workload and end-to-end metric."""
    print("| workload | metric | parent | change | wins |")
    print("|---|---|---|---|---|")
    for workload in workloads:
        pairs = {side: {r["seed"]: r["metrics"] for r in runs
                        if r["workload"] == workload and r["side"] == side}
                 for side in ("parent", "change")}
        for metric in end_to_end:
            name = metric["name"]
            scale, label = SHOWN_AS.get(metric["unit"], (1.0, ""))
            cells = []
            for side in ("parent", "change"):
                med, q1, q3 = summarize(
                    [scale * pairs[side][s][name] for s in seeds])
                cells.append(f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]")
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(sign * (pairs["change"][s][name] -
                               pairs["parent"][s][name]) > 0 for s in seeds)
            print(f"| `{workload}` | `{name}`{label} | {cells[0]} | "
                  f"{cells[1]} | {wins}/{len(seeds)} |")


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent git ref")
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", required=True,
                        help="seeds, one pair each: 501 502 or 501-510")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    sides = {"parent": export(args.base), "change": Path.cwd()}
    for tree in sides.values():
        build(tree)

    runs = []
    for workload in args.workloads:
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(sides[side], workload, seed, args.seconds)
                run.update(workload=workload, seed=seed, side=side)
                runs.append(run)
                m = run["metrics"]
                print(f"{workload} seed {seed} {side:<6} "
                      f"steal {run['steal']:6.2%}  "
                      f"rps {m['throughput_rps']:10.1f}  "
                      f"p50 {m['latency_p50_us']:8.1f}  "
                      f"p99 {m['latency_p99_us']:8.1f}  "
                      f"cpu {m['cpu_us_per_req']:7.2f}", flush=True)

    print(f"\n{len(seeds)} alternating pairs of {args.seconds:g}-s runs per "
          f"workload, seeds {' '.join(args.seeds)}; median [first quartile, "
          f"third quartile]; wins = pairs where the change read better.\n")
    print_table(runs, args.workloads, seeds, spec["end_to_end"])
    steals = [r["steal"] for r in runs]
    print(f"\nsteal per run: median {statistics.median(steals):.2%}, "
          f"max {max(steals):.2%}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError) as error:
        print(f"ab_pairs: {error}", file=sys.stderr)
        sys.exit(1)
