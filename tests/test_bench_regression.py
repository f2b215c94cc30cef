"""The bench regression gate reads ``benchmarks/e2e/run.py --output``.

``tools/check_bench_regression.py`` is what guards the committed
benchmark point, so it gets the same treatment as the code: a document
equal to the committed one passes, and each regression class -- an
incorrect or failing run, a missing workload or trace mode, a changed
count at the same seed, a timing beyond its bound on the same box --
flips the exit code.  Timings from another box are reported, not failed.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression", _ROOT / "tools" / "check_bench_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()
SPEC = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _quartiles(median):
    return {"min": median * 0.9, "q1": median * 0.95, "median": median,
            "q3": median * 1.05, "n": 5}


def _document(nproc=2, python="3.11.7", seed=11):
    """A minimal run.py --output document: every workload, both modes."""
    runs = []
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            metrics = (
                {"filters.after_nn": {"value": 40, "unit": "count"},
                 "io.wal_bytes": {"value": 0, "unit": "B"},
                 "filters.nn_s": {"value": 0.01, "unit": "s"}}
                if trace else
                {"setup_s": {"value": 0.1, "unit": "s"},
                 "wall_s": {"value": 0.3, "unit": "s"},
                 "throughput_ops_s": {"value": 100.0, "unit": "1/s"},
                 "peak_rss_mb": {"value": 80.0, "unit": "MB"}}
            )
            run = {
                "workload": workload["name"], "seed": seed, "trace": trace,
                "result": {"correct": True, "attempted": 30, "failed": 0,
                           "metrics": metrics},
            }
            if not trace:
                run["calibrated"] = {"setup_s": _quartiles(0.1),
                                     "wall_s": _quartiles(0.3)}
            runs.append(run)
    return {"environment": {"python": python, "nproc": nproc, "git_sha": "x"},
            "runs": runs}


def _run(tmp_path, fresh, committed=None, capsys=None):
    paths = []
    for name, document in (("fresh.json", fresh),
                           ("BENCH_pr27.json", committed or _document())):
        path = tmp_path / name
        path.write_text(json.dumps(document), encoding="utf-8")
        paths.append(str(path))
    code = gate.main(paths)
    return code, capsys.readouterr().out if capsys else ""


def _run_of(document, workload="verify_eds", trace=0):
    return next(r for r in document["runs"]
                if r["workload"] == workload and r["trace"] == trace)


def test_equal_document_passes(tmp_path):
    assert _run(tmp_path, _document())[0] == 0


def test_incorrect_run_fails(tmp_path):
    fresh = _document()
    _run_of(fresh, trace=1)["result"]["correct"] = False
    assert _run(tmp_path, fresh)[0] == 1


def test_failed_operations_fail(tmp_path):
    fresh = _document()
    _run_of(fresh)["result"]["failed"] = 1
    assert _run(tmp_path, fresh)[0] == 1


@pytest.mark.parametrize("trace", [0, 1])
def test_missing_workload_or_trace_mode_fails(tmp_path, trace):
    fresh = _document()
    fresh["runs"].remove(_run_of(fresh, "serve_search", trace))
    assert _run(tmp_path, fresh)[0] == 1


@pytest.mark.parametrize("name", ["filters.after_nn", "io.wal_bytes"])
def test_edited_exact_metric_fails_at_the_same_seed(tmp_path, name):
    fresh = _document()
    _run_of(fresh, "discover_eds", 1)["result"]["metrics"][name]["value"] += 1
    assert _run(tmp_path, fresh)[0] == 1


def test_counts_at_another_seed_are_not_compared(tmp_path, capsys):
    fresh = _document(seed=12)
    _run_of(fresh, "discover_eds", 1)["result"]["metrics"]["filters.after_nn"]["value"] += 1
    code, out = _run(tmp_path, fresh, capsys=capsys)
    assert code == 0 and "counts not compared" in out


def test_per_layer_seconds_are_not_compared(tmp_path):
    fresh = _document()
    _run_of(fresh, trace=1)["result"]["metrics"]["filters.nn_s"]["value"] *= 10
    assert _run(tmp_path, fresh)[0] == 0


def _slower(document, factor):
    run = _run_of(document)
    run["calibrated"]["wall_s"] = _quartiles(0.3 * factor)
    run["result"]["metrics"]["wall_s"]["value"] = 0.3 * factor
    return document


def test_wall_beyond_bound_with_disjoint_iqrs_fails_on_the_same_box(tmp_path):
    assert _run(tmp_path, _slower(_document(), 1.5))[0] == 1


def test_wall_beyond_bound_with_overlapping_iqrs_passes(tmp_path):
    fresh = _slower(_document(), 1.5)
    _run_of(fresh)["calibrated"]["wall_s"]["q1"] = 0.3
    assert _run(tmp_path, fresh)[0] == 0


def test_wall_within_bound_passes(tmp_path):
    assert _run(tmp_path, _slower(_document(), 1.2))[0] == 0


def test_setup_beyond_bound_with_disjoint_iqrs_fails_on_the_same_box(
    tmp_path, capsys
):
    fresh = _document()
    _run_of(fresh, "serve_mixed_wal")["calibrated"]["setup_s"] = _quartiles(0.15)
    code, out = _run(tmp_path, fresh, capsys=capsys)
    assert code == 1
    assert "FAIL serve_mixed_wal --trace 0: setup_s median" in out


def test_peak_rss_beyond_bound_fails_on_the_same_box(tmp_path):
    fresh = _document()
    _run_of(fresh)["result"]["metrics"]["peak_rss_mb"]["value"] = 90.0
    assert _run(tmp_path, fresh)[0] == 1


def test_peak_rss_within_bound_passes(tmp_path):
    fresh = _document()
    _run_of(fresh)["result"]["metrics"]["peak_rss_mb"]["value"] = 87.0
    assert _run(tmp_path, fresh)[0] == 0


def test_every_failure_is_reported(tmp_path, capsys):
    fresh = _slower(_document(), 1.5)
    _run_of(fresh, "discover_jaccard", 1)["result"]["correct"] = False
    code, out = _run(tmp_path, fresh, capsys=capsys)
    assert code == 1
    assert out.count("FAIL ") == 2
    assert "regressed (2 failure(s)" in out


def test_workload_missing_from_the_committed_point_is_unresolved(
    tmp_path, capsys
):
    committed = _document()
    committed["runs"] = [r for r in committed["runs"]
                         if r["workload"] != "serve_search"]
    code, out = _run(tmp_path, _document(), committed, capsys=capsys)
    assert code == 0
    assert "unresolved serve_search --trace 0: not in the committed" in out
    assert "unresolved serve_search --trace 1: not in the committed" in out


def test_wrong_schema_rejected(tmp_path, capsys):
    """A document of another shape is an error, never a silent pass."""
    fresh = {"schema": "an older trajectory", "entries": [{"wall_s": 0.3}]}
    assert _run(tmp_path, fresh)[0] == 1
    assert "error:" in capsys.readouterr().err


def test_unreadable_committed_point_fails(tmp_path, capsys):
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(_document()), encoding="utf-8")
    assert gate.main([str(fresh), str(tmp_path / "BENCH_pr1.json")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("box", [{"nproc": 4}, {"python": "3.12.1"}])
def test_timings_on_another_box_are_reported_not_failed(tmp_path, capsys, box):
    fresh = _slower(_document(**box), 3.0)
    _run_of(fresh)["result"]["metrics"]["peak_rss_mb"]["value"] = 500.0
    code, out = _run(tmp_path, fresh, capsys=capsys)
    assert code == 0
    assert "unresolved verify_eds --trace 0: wall_s 0.9" in out


def test_highest_numbered_point_is_the_default(tmp_path):
    for n in (7, 27, 100, 99):
        (tmp_path / f"BENCH_pr{n}.json").write_text("{}", encoding="utf-8")
    (tmp_path / "BENCH_prX.json").write_text("{}", encoding="utf-8")
    assert gate.latest_committed(tmp_path).name == "BENCH_pr100.json"
    assert gate.latest_committed(tmp_path / "empty") is None


def test_committed_point_is_whole_and_holds_against_itself():
    path = gate.latest_committed(_ROOT)
    assert path is not None, "no BENCH_pr<N>.json committed"
    committed = json.loads(path.read_text(encoding="utf-8"))
    assert committed["environment"]["nproc"] >= 2
    assert all(r["result"]["correct"] and r["result"]["failed"] == 0
               for r in committed["runs"])
    assert gate.check(committed, copy.deepcopy(committed), SPEC) == ([], [])
