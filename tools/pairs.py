"""Paired benchmark runs of two trees: does the change win, and by more than noise?

    python3 tools/pairs.py --parent ../parent --change . --workload fig3_suite
                           [--seed 42] [--pairs 10] [--seconds 40] [--json out.json]

Runs the benchmark command of BENCHMARK.json (``bench/run.py --workload W
--seed S --seconds X --trace 0``) in the parent tree and in the change tree,
one at a time, for ``--pairs`` pairs, alternating which tree runs first.
Each run's value of a metric is the median that the benchmark reports over
its own repetitions.  Standard library only.

For every end-to-end metric it prints each side's median and quartiles
(``statistics.quantiles(n=4)``), the number of pairs the change wins (ties
count for neither side) and the median change.  ``claim`` holds when the
change wins at least nine tenths of the pairs and the medians differ, in
the metric's better direction, by more than the parent's interquartile
range.  The last line of standard output is the JSON result.

Both trees run with PYTHONDONTWRITEBYTECODE=1, and a tree that holds
``src/canavbsim/__pycache__`` is refused: a bytecode cache in one tree
only would make every process of that side skip compiling the package.
Exits 1 when a run fails or reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, command: list[str], args: argparse.Namespace) -> dict:
    """One benchmark run in ``tree``; returns its JSON result."""
    argv = command + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def side_stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "runs_in_pair_order": values,
    }


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Win count, median change and the claim rule for one metric."""
    sign = -1 if better == "lower" else 1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p, c = side_stats(parent), side_stats(change)
    gap = sign * (c["median"] - p["median"])
    return {
        "parent": p,
        "change": c,
        "change_better_in": f"{wins}/{len(parent)}",
        "median_change": f"{(c['median'] / p['median'] - 1) * 100:+.1f}%" if p["median"] else "n/a",
        "claim": 10 * wins >= 9 * len(parent) and gap > p["q3"] - p["q1"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent tree")
    parser.add_argument("--change", type=Path, required=True, help="change tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--json", type=Path, help="also write the JSON result here")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if (tree / "src" / "canavbsim" / "__pycache__").exists():
            sys.exit(f"error: {side} tree {tree} holds src/canavbsim/__pycache__; remove it first")
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    command = [sys.executable if part in ("python", "python3") else part for part in spec["command"]]

    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    first = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            results[side].append(run_once(trees[side], command, args))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    correct = all(r["correct"] for side in SIDES for r in results[side])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "correct_all": correct,
        "first_in_pair": first,
        "metrics": {},
    }
    print(f"{args.workload} seed={args.seed} pairs={args.pairs} seconds={args.seconds}")
    print(f"  {'metric':<12} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}  wins  claim")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        row = compare(values["parent"], values["change"], metric["better"])
        report["metrics"][name] = row
        p, c = row["parent"], row["change"]
        print(
            f"  {name:<12} {p['median']:>12.4f} [{p['q1']:.4f}, {p['q3']:.4f}]"
            f" {c['median']:>12.4f} [{c['q1']:.4f}, {c['q3']:.4f}]"
            f"  {row['change_better_in']:>5}  {row['claim']}"
        )
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
