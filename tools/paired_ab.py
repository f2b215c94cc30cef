#!/usr/bin/env python3
"""Paired A/B runs of benchmark workloads on two source trees.

A speed claim compares two trees on a noisy box, so the runs come in
pairs: per seed, each tree runs its own unmodified
``benchmarks/e2e/run.py --workload W --seed S --trace 0``, and which
tree runs first alternates from seed to seed.  ``--workload`` takes a
comma-separated list -- the claimed workload and its controls -- and
every seed then runs each workload in turn, both trees in that seed's
order, so all of them share one alternating schedule.  Both trees must
be free of ``__pycache__`` under ``src/`` (a stale bytecode file could
stand in for the source being measured), and every child runs with
``PYTHONDONTWRITEBYTECODE=1`` so they stay that way.  A run whose
result is not ``correct`` or has failed operations stops the script.

For every workload and every end-to-end metric ``BENCHMARK.json``
declares, the report gives each tree's median, A's interquartile range
(IQR), the median and IQR of the per-seed ratios B / A, and how many
pairs B improved (by the metric's ``better`` direction): one table per
workload, or with ``--json`` one JSON object per workload, one per
line.  Usage::

    python3 tools/paired_ab.py BASE_TREE CANDIDATE_TREE \\
        --workload serve_search,serve_mixed_wal --seeds 101-110 \\
        [--seconds 12] [--json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"101-110"`` (inclusive), ``"7"`` or ``"3,5,9"`` -> seeds."""
    if "-" in text:
        low, high = (int(part) for part in text.split("-", 1))
        if high < low:
            raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def schedule(seeds: list[int]) -> list[tuple[int, tuple[str, str]]]:
    """Per seed, the order the two trees run in: A first on even
    positions, B first on odd ones."""
    return [
        (seed, ("A", "B") if k % 2 == 0 else ("B", "A"))
        for k, seed in enumerate(seeds)
    ]


def check_tree(tree: Path) -> None:
    """Refuse a tree that is no checkout or holds compiled bytecode."""
    if not (tree / "benchmarks" / "e2e" / "run.py").is_file():
        raise SystemExit(f"error: {tree} has no benchmarks/e2e/run.py")
    stale = next((tree / "src").rglob("__pycache__"), None)
    if stale is not None:
        raise SystemExit(f"error: {stale} exists; measure pycache-free trees")


def parse_result(stdout: str, label: str) -> dict:
    """The result JSON on a run's last stdout line; exits on a run
    that is not correct or failed operations."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: {label}: no output")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0):
        raise SystemExit(
            f"error: {label}: correct={result.get('correct')} "
            f"failed={result.get('failed')}"
        )
    return result


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of *workload* at *seed* in *tree*."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=tree, env=env, capture_output=True, text=True
    )
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: {tree} seed {seed}: exit {done.returncode}")
    return parse_result(done.stdout, f"{tree} seed {seed}")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per end-to-end metric: both medians, A's IQR, the per-pair ratio
    B / A's median and IQR, and how many pairs B improved."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        a = [pair[0]["metrics"][name]["value"] for pair in pairs]
        b = [pair[1]["metrics"][name]["value"] for pair in pairs]
        ratios = [y / x for x, y in zip(a, b) if x]
        lower = metric["better"] == "lower"
        q1, median, q3 = _quartiles(ratios) if ratios else (0.0, 0.0, 0.0)
        a_q1, _, a_q3 = _quartiles(a)
        summary[name] = {
            "median_a": statistics.median(a),
            "iqr_a": a_q3 - a_q1,
            "median_b": statistics.median(b),
            "ratio_median": median,
            "ratio_iqr": q3 - q1,
            "improved": sum((y < x) if lower else (y > x) for x, y in zip(a, b)),
            "pairs": len(pairs),
            "better": metric["better"],
        }
    return summary


def format_summary(summary: dict) -> str:
    """The summary as a fixed-width table, one metric per line."""
    lines = [
        f"{'metric':18s} {'median A':>12s} {'IQR A':>10s} {'median B':>12s} "
        f"{'B/A median':>11s} {'IQR':>8s} {'improved':>9s}"
    ]
    for name, row in summary.items():
        lines.append(
            f"{name:18s} {row['median_a']:12.6g} {row['iqr_a']:10.4g} "
            f"{row['median_b']:12.6g} "
            f"{row['ratio_median']:11.4f} {row['ratio_iqr']:8.4f} "
            f"{row['improved']:>4d}/{row['pairs']:<4d}"
        )
    return "\n".join(lines)


def collect(
    workloads: list[str], seeds: list[int], run
) -> dict[str, list[tuple[dict, dict]]]:
    """Per workload, its ``(A result, B result)`` pairs in seed order.

    ``run(label, workload, seed)`` runs one tree; per seed every
    workload runs both trees in that seed's :func:`schedule` order.
    """
    pairs: dict[str, list[tuple[dict, dict]]] = {name: [] for name in workloads}
    for seed, order in schedule(seeds):
        for name in workloads:
            results = {label: run(label, name, seed) for label in order}
            pairs[name].append((results["A"], results["B"]))
        print(f"seed {seed}: ran {' then '.join(order)}", file=sys.stderr)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path, help="base tree (A)")
    parser.add_argument("tree_b", type=Path, help="candidate tree (B)")
    parser.add_argument(
        "--workload", required=True, type=lambda text: text.split(","),
        help="one workload, or a comma-separated list",
    )
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    trees = {"A": args.tree_a.resolve(), "B": args.tree_b.resolve()}
    for tree in trees.values():
        check_tree(tree)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs = collect(
        args.workload,
        args.seeds,
        lambda label, name, seed: run_tree(trees[label], name, seed, args.seconds),
    )
    for name, runs in pairs.items():
        summary = summarise(runs, spec["end_to_end"])
        if args.json:
            print(json.dumps(
                {"workload": name, "seeds": args.seeds, "summary": summary}
            ))
        else:
            print(f"{name}, seeds {args.seeds[0]}..{args.seeds[-1]}")
            print(format_summary(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
