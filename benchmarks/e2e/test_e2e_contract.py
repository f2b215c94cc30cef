"""The benchmark keeps its contract: names, units, exactness, repeatability.

Runs ``run.py --smoke`` (tiny sizes, one round per workload, both trace
modes) twice and checks the output against ``BENCHMARK.json``.  Timing
values are not compared -- only that they are there; every count and
every result digest must repeat bit for bit.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
EXACT_UNITS = {"count", "B"}


def smoke(path: Path) -> list[dict]:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--output", str(path)],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    return json.loads(path.read_text())["runs"]


def test_smoke_run_meets_the_contract_and_repeats(tmp_path):
    first, second = smoke(tmp_path / "a.json"), smoke(tmp_path / "b.json")
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    assert [(r["workload"], r["trace"]) for r in first] == [
        (name, mode) for name in workloads for mode in (0, 1)
    ]
    for one, two in zip(first, second):
        declared = BENCHMARK["per_layer" if one["trace"] else "end_to_end"]
        result = one["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, one["failures"]
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            assert NAME.fullmatch(metric["name"])
            value = result["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"]
            if metric["unit"] in EXACT_UNITS:
                other = two["result"]["metrics"][metric["name"]]["value"]
                assert value["value"] == other, metric["name"]
            elif not one["trace"]:
                assert value["value"] > 0, metric["name"]
        assert one["digest"] == two["digest"]
        assert one["decision"] == two["decision"]
    by_name = {r["workload"]: r["digest"] for r in first}
    assert by_name["cluster_discover"] == by_name["verify_eds"]
    # A per-layer name no workload produces would read 0 everywhere.
    # (Every discovery query is broadcast today: no shard is skipped.)
    for metric in BENCHMARK["per_layer"]:
        if metric["name"] != "cluster.shards_skipped":
            assert any(
                r["result"]["metrics"][metric["name"]]["value"]
                for r in first if r["trace"]
            ), metric["name"]
