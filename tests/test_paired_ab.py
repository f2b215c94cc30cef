"""``tools/paired_ab.py``: the A/B protocol's arithmetic, no subprocess.

The script's runs are what a speed claim rests on, so its alternation,
its refusals and its summary arithmetic are pinned here on fixed
result documents.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location(
        "paired_ab", _ROOT / "tools" / "paired_ab.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load()
METRICS = [
    {"name": "wall_s", "better": "lower"},
    {"name": "throughput_ops_s", "better": "higher"},
]


def _result(wall, throughput):
    return {
        "correct": True,
        "failed": 0,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "throughput_ops_s": {"value": throughput, "unit": "1/s"},
        },
    }


def test_the_first_tree_alternates_from_seed_to_seed():
    assert ab.schedule([11, 12, 13, 14]) == [
        (11, ("A", "B")), (12, ("B", "A")), (13, ("A", "B")), (14, ("B", "A")),
    ]
    assert ab.parse_seeds("101-104") == [101, 102, 103, 104]
    assert ab.parse_seeds("7") == [7] and ab.parse_seeds("3,5") == [3, 5]


def test_summary_medians_ratios_and_improved_pairs():
    pairs = [
        (_result(1.0, 100.0), _result(0.8, 125.0)),
        (_result(2.0, 50.0), _result(1.0, 100.0)),
        (_result(1.0, 100.0), _result(1.2, 80.0)),
        (_result(4.0, 25.0), _result(3.6, 25.0)),
    ]
    summary = ab.summarise(pairs, METRICS)
    wall = summary["wall_s"]
    # Ratios B/A: 0.8, 0.5, 1.2, 0.9 -> sorted 0.5, 0.8, 0.9, 1.2.
    assert wall["median_a"] == 1.5 and wall["median_b"] == pytest.approx(1.1)
    # A's own runs 1, 1, 2, 4: inclusive quartiles 1.0 and 2.5.
    assert wall["iqr_a"] == pytest.approx(1.5)
    assert wall["ratio_median"] == pytest.approx(0.85)
    # Inclusive quartiles: q1 = 0.725, q3 = 0.975.
    assert wall["ratio_iqr"] == pytest.approx(0.25)
    assert (wall["improved"], wall["pairs"]) == (3, 4)
    throughput = summary["throughput_ops_s"]
    assert throughput["improved"] == 2  # higher is better; a tie is no gain
    assert throughput["ratio_median"] == pytest.approx(1.125)
    table = ab.format_summary(summary)
    assert "wall_s" in table and "3/4" in table


def test_a_single_pair_has_no_spread():
    (row,) = ab.summarise(
        [(_result(2.0, 1.0), _result(1.0, 1.0))], METRICS[:1]
    ).values()
    assert row["ratio_median"] == 0.5 and row["ratio_iqr"] == 0.0


def test_an_incorrect_or_failing_run_stops_the_script():
    good = _result(1.0, 1.0)
    assert ab.parse_result("noise\n" + json.dumps(good) + "\n", "A") == good
    for bad in ({**good, "correct": False}, {**good, "failed": 3}):
        with pytest.raises(SystemExit):
            ab.parse_result(json.dumps(bad), "A")
    with pytest.raises(SystemExit):
        ab.parse_result("", "A")


def test_a_tree_with_bytecode_under_src_is_refused(tmp_path):
    (tmp_path / "benchmarks" / "e2e").mkdir(parents=True)
    (tmp_path / "benchmarks" / "e2e" / "run.py").write_text("")
    (tmp_path / "src" / "repro").mkdir(parents=True)
    ab.check_tree(tmp_path)
    (tmp_path / "src" / "repro" / "__pycache__").mkdir()
    with pytest.raises(SystemExit, match="__pycache__"):
        ab.check_tree(tmp_path)
    with pytest.raises(SystemExit, match="run.py"):
        ab.check_tree(tmp_path / "src")


def test_a_workload_list_shares_one_alternating_schedule():
    calls = []

    def run(label, workload, seed):
        calls.append((seed, workload, label))
        wall = 1.0 if label == "A" else 0.5
        return _result(wall, 1 / wall)

    pairs = ab.collect(["claim", "control"], [11, 12, 13], run)
    # Per seed every workload runs, both trees in that seed's order.
    assert calls == [
        (11, "claim", "A"), (11, "claim", "B"),
        (11, "control", "A"), (11, "control", "B"),
        (12, "claim", "B"), (12, "claim", "A"),
        (12, "control", "B"), (12, "control", "A"),
        (13, "claim", "A"), (13, "claim", "B"),
        (13, "control", "A"), (13, "control", "B"),
    ]
    # One summary per workload, over its own pairs, each oriented (A, B).
    assert list(pairs) == ["claim", "control"]
    for runs in pairs.values():
        summary = ab.summarise(runs, METRICS)
        assert summary["wall_s"]["pairs"] == 3
        assert summary["wall_s"]["improved"] == 3
        assert summary["wall_s"]["ratio_median"] == 0.5


@pytest.mark.parametrize("as_json", [False, True], ids=["table", "json"])
def test_main_reports_each_workload(monkeypatch, capsys, as_json):
    monkeypatch.setattr(ab, "check_tree", lambda tree: None)
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = {
        "correct": True,
        "failed": 0,
        "metrics": {m["name"]: {"value": 1.0} for m in spec["end_to_end"]},
    }
    monkeypatch.setattr(ab, "run_tree", lambda tree, workload, seed, seconds: result)
    argv = ["a", "b", "--workload", "claim,control", "--seeds", "1-2"]
    assert ab.main(argv + ["--json"] if as_json else argv) == 0
    out = capsys.readouterr().out
    if as_json:
        documents = [json.loads(line) for line in out.splitlines()]
        assert [doc["workload"] for doc in documents] == ["claim", "control"]
        assert all(doc["seeds"] == [1, 2] for doc in documents)
        assert all(doc["summary"]["wall_s"]["pairs"] == 2 for doc in documents)
    else:
        assert out.startswith("claim, seeds 1..2\n") and "\ncontrol, seeds 1..2\n" in out
        assert out.count("wall_s ") == 2
