"""Run the acceptance protocol: ten seeds per workload, spread per metric.

For every workload this runs ``run.py --trace 0`` once per seed, then
prints, for each end-to-end metric, the median over the seeds and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``) -- beside the same figure for
the *raw*, uncalibrated clock, which is what calibration has to beat.
``--sets 2`` repeats the whole thing and compares the two medians.

    python3 benchmarks/e2e/spread.py [--sets 2] [--seeds 10] [--workload NAME] [--json FILE]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_set(workload: str, seeds, seconds: int) -> dict:
    """metric -> list of values over *seeds* (raw clock under ``raw:``)."""
    values: dict = {}
    (HERE / ".tmp").mkdir(exist_ok=True)
    for seed in seeds:
        with tempfile.NamedTemporaryFile(dir=HERE / ".tmp", suffix=".json") as out:
            subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                 "--output", out.name],
                check=True, stdout=subprocess.DEVNULL,
            )
            run = json.loads(Path(out.name).read_text())["runs"][0]
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for name, quartiles in run["raw"].items():
            values.setdefault("raw:" + name, []).append(quartiles["median"])
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json", help="write every value here")
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    record = {}
    worst = 0.0
    for workload in names:
        sets = [
            one_set(
                workload,
                range(1 + k * args.seeds, 1 + (k + 1) * args.seeds),
                benchmark["run_seconds"],
            )
            for k in range(args.sets)
        ]
        record[workload] = sets
        for name in sets[0]:
            medians = [statistics.median(s[name]) for s in sets]
            spreads = [spread(s[name]) for s in sets]
            line = f"{workload:18s} {name:20s} " + "  ".join(
                f"median {m:10.4f} spread {s:6.3f}" for m, s in zip(medians, spreads)
            )
            if name in bounds:
                bound = bounds[name]["bound"]
                line += f"  bound {bound:.2f}"
                if name != "setup_s":
                    worst = max(worst, max(spreads) / bound)
                if len(medians) == 2:
                    change = medians[1] / medians[0] - 1.0
                    if bounds[name]["better"] == "higher":
                        change = medians[0] / medians[1] - 1.0
                    line += f"  second worse by {change:+.3f}"
            print(line, flush=True)
    print(f"largest spread / bound: {worst:.2f} (target < 0.33, limit 1.0)")
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
