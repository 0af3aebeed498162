"""Compare the benchmark of the working tree with a parent commit, in pairs.

    python3 scripts/bench_pairs.py --workload train-small --pairs 10 --seed 301

The parent ref (default HEAD) is checked out with ``git worktree add
--detach`` into a temporary directory. Each pair runs
``perfbench/run.py --trace 0`` once on each side with the same seed
(seed, seed + 1, ...), and alternates which side goes first. For every
end-to-end metric of BENCHMARK.json the script then prints the median and
quartiles of each side, the ratio of the medians, how many pairs the
change won, whether the median gap exceeds the parent's interquartile
range, and whether the metric is resolved at all: it is not when the
parent's interquartile range is wider than the metric's ``bound`` times
the parent's median, so a change of that size cannot be told from noise.
The worktree is removed at the end. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``; its metric values, or {} on failure."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  run failed in {tree} (exit {proc.returncode}): {proc.stderr[-300:]}",
              file=sys.stderr)
        return {}
    result = json.loads(lines[-1])
    if not result.get("correct"):
        print(f"  run in {tree} reports correct=false: {lines[-2][:300]}", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(lower quartile, median, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, declared) -> list:
    """Print one row per declared metric that both sides report, and
    return the rows as dicts."""
    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    def yes(flag):
        return "yes" if flag else "no"

    print(f"{'metric':22} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'ratio':>7} {'won':>6} {'gap>IQR':>7} {'resolved':>8}")
    rows = []
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not both:
            continue
        pq = quartiles([p for p, _ in both])
        cq = quartiles([c for _, c in both])
        won = sum((c < p) if lower else (c > p) for p, c in both)
        gap = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        row = {"metric": name, "parent": pq, "change": cq, "ratio": ratio, "won": won,
               "pairs": len(both), "gap_above_iqr": gap > pq[2] - pq[0],
               "resolved": pq[2] - pq[0] <= metric["bound"] * abs(pq[1])}
        rows.append(row)
        print(f"{name:22} {cell(pq):>30} {cell(cq):>30} {ratio:>7.3f} "
              f"{won:>3}/{len(both):<2} {yes(row['gap_above_iqr']):>7} "
              f"{yes(row['resolved']):>8}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--parent", default="HEAD", help="git ref to compare against")
    parser.add_argument("--json", default=None, help="also write every run's metrics here")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end"]
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    parent = tmp / "parent"
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(parent),
                    args.parent], check=True, capture_output=True)
    pairs = []
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            sides = [("parent", parent), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            got = {side: run_bench(tree, args.workload, seed, args.seconds)
                   for side, tree in sides}
            pairs.append((got["parent"], got["change"]))
            print(f"pair {i + 1}/{args.pairs} (seed {seed}, {sides[0][0]} first) done",
                  file=sys.stderr)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(parent)],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([{"seed": args.seed + i, "parent": p, "change": c}
                       for i, (p, c) in enumerate(pairs)], fh, indent=1)
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"parent {args.parent}")
    summarize(pairs, declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
