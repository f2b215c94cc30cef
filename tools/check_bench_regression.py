#!/usr/bin/env python3
"""Gate a fresh end-to-end benchmark document against the committed one.

``python3 benchmarks/e2e/run.py --output FILE`` writes the document: an
``environment`` (``python``, ``nproc``, ...) and one run per workload and
trace mode, with its ``seed``, contract ``result`` and, untraced, the
``calibrated`` timing quartiles.  A change that claims a gain or changes
a count metric commits its document as ``BENCH_pr<N>.json``; the one with
the highest N is the default committed point.  Exit 1 when FRESH

* has a run that is not ``correct`` or has ``failed > 0``;
* lacks a ``BENCHMARK.json`` workload in either trace mode;
* at the committed seed, differs in a per-layer metric whose
  ``BENCHMARK.json`` unit is ``count`` or ``B`` (these repeat exactly);
* with the committed ``nproc`` and Python minor, has a ``wall_s`` or
  ``setup_s`` median worse than its bound *and* an interquartile range
  disjoint from the committed one, or a ``peak_rss_mb`` beyond its bound.

Timings from any other box are printed as unresolved.  Usage::

    python3 benchmarks/e2e/run.py --seconds 0 --output bench_fresh.json
    python tools/check_bench_regression.py bench_fresh.json [COMMITTED]
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = re.compile(r"BENCH_pr(\d+)\.json")
#: Per-layer units whose values are exact, so any difference is a change.
EXACT_UNITS = ("count", "B")


def latest_committed(root: Path) -> Path | None:
    """The ``BENCH_pr<N>.json`` under *root* with the highest numeric N."""
    numbered = [
        (int(match.group(1)), path)
        for path in root.glob("BENCH_pr*.json")
        if (match := COMMITTED.fullmatch(path.name))
    ]
    return max(numbered)[1] if numbered else None


def _box(document: dict) -> tuple:
    environment = document["environment"]
    return environment["nproc"], environment["python"].rsplit(".", 1)[0]


def _counts(label: str, run: dict, old: dict, exact: list) -> list:
    def value(document, name):
        return document["result"]["metrics"].get(name, {}).get("value")

    return [
        f"{label}: {name} = {value(run, name)}, committed {value(old, name)}"
        for name in exact
        if value(run, name) != value(old, name)
    ]


def _timings(label: str, run: dict, old: dict, bounds: dict) -> list:
    worse = []
    for name in ("wall_s", "setup_s"):
        new, was = run["calibrated"][name], old["calibrated"][name]
        if new["median"] > was["median"] * (1 + bounds[name]) and new["q1"] > was["q3"]:
            worse.append(
                f"{label}: {name} median {new['median']:.4g} > committed "
                f"{was['median']:.4g} by more than {bounds[name]:.0%}, "
                f"q1 {new['q1']:.4g} > committed q3 {was['q3']:.4g}"
            )
    new = run["result"]["metrics"]["peak_rss_mb"]["value"]
    was = old["result"]["metrics"]["peak_rss_mb"]["value"]
    if new > was * (1 + bounds["peak_rss_mb"]):
        worse.append(
            f"{label}: peak_rss_mb {new:.1f} > committed {was:.1f} "
            f"by more than {bounds['peak_rss_mb']:.0%}"
        )
    return worse


def check(fresh: dict, committed: dict, spec: dict) -> tuple[list, list]:
    """``(failures, unresolved)``: one line per finding."""
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    same_box = _box(fresh) == _box(committed)
    fresh_runs = {(r["workload"], r["trace"]): r for r in fresh["runs"]}
    old_runs = {(r["workload"], r["trace"]): r for r in committed["runs"]}
    failures, unresolved = [], []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            key = (workload["name"], trace)
            label = f"{key[0]} --trace {trace}"
            run, old = fresh_runs.get(key), old_runs.get(key)
            if run is None:
                failures.append(f"{label}: missing from the fresh document")
                continue
            result = run["result"]
            if not result["correct"] or result["failed"]:
                failures.append(
                    f"{label}: correct={result['correct']} failed={result['failed']}"
                )
            if old is None:
                unresolved.append(f"{label}: not in the committed document")
            elif trace and run["seed"] != old["seed"]:
                unresolved.append(
                    f"{label}: seed {run['seed']} != committed {old['seed']}, "
                    "counts not compared"
                )
            elif trace:
                failures += _counts(label, run, old, exact)
            elif same_box:
                failures += _timings(label, run, old, bounds)
            else:
                unresolved.append(
                    f"{label}: wall_s {result['metrics']['wall_s']['value']:.4g} "
                    f"(committed {old['result']['metrics']['wall_s']['value']:.4g}) "
                    f"on nproc/python {_box(fresh)} vs committed {_box(committed)}"
                )
    return failures, unresolved


def main(argv=None) -> int:
    """Exit 0 when FRESH holds the committed point, 1 otherwise."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="a fresh run.py --output document")
    parser.add_argument(
        "committed", nargs="?",
        help="committed document (default: the highest-numbered BENCH_pr<N>.json)",
    )
    args = parser.parse_args(argv)
    committed_path = Path(args.committed) if args.committed else latest_committed(ROOT)
    if committed_path is None:
        print(f"error: no BENCH_pr<N>.json under {ROOT}", file=sys.stderr)
        return 1
    try:
        fresh, committed, spec = (
            json.loads(Path(path).read_text(encoding="utf-8"))
            for path in (args.fresh, committed_path, ROOT / "BENCHMARK.json")
        )
        failures, unresolved = check(fresh, committed, spec)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    for line in unresolved:
        print(f"unresolved {line}")
    for line in failures:
        print(f"FAIL {line}")
    verdict = "regressed" if failures else "holds"
    print(f"{args.fresh} against {committed_path.name}: {verdict} "
          f"({len(failures)} failure(s), {len(unresolved)} unresolved)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
