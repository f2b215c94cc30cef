#!/usr/bin/env python3
"""Run the perf-trajectory harness and write a ``BENCH_<tag>.json``.

The committed ``BENCH_pr4.json`` at the repository root was produced
by this tool at the default scale; CI re-runs it at a tiny scale as a
crash smoke (timings are machine-dependent and deliberately not
asserted).  Future PRs add ``BENCH_<tag>.json`` files of their own so
the speedup series stays reviewable.

``--output`` is mandatory and should name the *current* PR's tag
(``BENCH_pr5.json``, ...) -- never overwrite an earlier PR's committed
baseline; each file is one point of the series.

Usage::

    PYTHONPATH=src python tools/bench_trajectory.py --output BENCH_pr4.json
    PYTHONPATH=src python tools/bench_trajectory.py --scale 0.05 --output /tmp/smoke.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.trajectory import (  # noqa: E402
    KNOWN_WORKLOADS,
    format_trajectory,
    write_trajectory,
)


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload size multiplier (default 1.0; CI smoke uses 0.05)",
    )
    parser.add_argument(
        "--output",
        required=True,
        help=(
            "where to write the JSON payload; use the current PR's tag "
            "(BENCH_<tag>.json) so earlier trajectory points are never "
            "overwritten"
        ),
    )
    parser.add_argument(
        "--workload",
        action="append",
        default=None,
        choices=KNOWN_WORKLOADS,
        help=(
            "run only this pinned workload (repeatable; default: all; "
            "CI's bench smoke times the select-dominated edit_verify "
            "alone)"
        ),
    )
    args = parser.parse_args(argv)
    payload = write_trajectory(
        args.output,
        scale=args.scale,
        workloads=tuple(args.workload) if args.workload else (),
    )
    if payload.get("cpus", 0) == 1:
        print(
            "=" * 72
            + "\nWARNING: this machine reports a single CPU.  The "
            "cluster_discover\nworker-scaling curve is meaningless at 1 "
            "core (process shards just\ntime-slice), and kernel timings "
            "are noisier.  Do NOT commit this file\nas a trajectory "
            "point; rerun on a multi-core machine.\n" + "=" * 72,
            file=sys.stderr,
        )
    print(format_trajectory(payload))
    print(
        f"wrote {args.output} "
        f"(git {payload.get('git_sha', 'unknown')}, "
        f"host {payload.get('hostname', 'unknown')}, "
        f"{payload.get('cpus', '?')} cpu(s))"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
