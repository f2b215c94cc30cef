"""The CI bench regression gate fails on regressed payloads.

``tools/check_bench_regression.py`` is what actually guards the
committed performance trajectory, so it gets the same treatment as the
code: a healthy smoke payload must pass, and each regression class --
result drift, a silently-disabled selection kernel, a tanked speedup
-- must flip the exit code, with the machine-readable diff report
naming the failed check.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression", _TOOLS / "check_bench_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()


def _payload(speedup=5.0, matches=10, scanned=500):
    """One minimal silkmoth-perf-trajectory/1 document."""
    return {
        "schema": "silkmoth-perf-trajectory/1",
        "scale": 1.0,
        "workloads": {
            "edit_verify": {
                "baseline": {"matches": matches, "verified": 40,
                             "seconds": 1.0},
                "optimized": {
                    "matches": matches,
                    "verified": 40,
                    "seconds": 0.2,
                    "select_postings_scanned": scanned,
                    "select_distinct_pairs": scanned // 2,
                },
                "speedup": speedup,
            },
        },
    }


@pytest.fixture()
def baseline_file(tmp_path):
    """A committed-style baseline the fresh payloads diff against."""
    path = tmp_path / "BENCH_pr1.json"
    path.write_text(json.dumps(_payload()), encoding="utf-8")
    return path


def _run(tmp_path, fresh, baseline_file, extra=()):
    fresh_path = tmp_path / "BENCH_smoke.json"
    fresh_path.write_text(json.dumps(fresh), encoding="utf-8")
    report = tmp_path / "report.json"
    code = gate.main(
        [
            str(fresh_path),
            "--baseline",
            str(baseline_file),
            "--report",
            str(report),
            *extra,
        ]
    )
    return code, json.loads(report.read_text(encoding="utf-8"))


def test_healthy_payload_passes(tmp_path, baseline_file):
    """Same numbers as the baseline: exit 0, zero failures recorded."""
    code, report = _run(tmp_path, _payload(), baseline_file)
    assert code == 0
    assert report["failures"] == 0
    assert report["schema"] == "silkmoth-bench-regression/1"


def test_result_drift_fails(tmp_path, baseline_file):
    """optimized.matches != baseline.matches is a hard failure."""
    fresh = _payload()
    fresh["workloads"]["edit_verify"]["optimized"]["matches"] = 11
    code, report = _run(tmp_path, fresh, baseline_file)
    assert code == 1
    failed = [c for c in report["checks"] if not c["ok"]]
    assert any(c["check"] == "exactness:matches" for c in failed)


def test_disabled_select_funnel_fails(tmp_path, baseline_file):
    """A zeroed select funnel means the kernel stopped running."""
    fresh = _payload(scanned=0)
    code, report = _run(tmp_path, fresh, baseline_file)
    assert code == 1
    failed = [c for c in report["checks"] if not c["ok"]]
    assert any(c["check"] == "select-funnel-active" for c in failed)


def test_tanked_speedup_fails(tmp_path, baseline_file):
    """Fresh speedup below the tolerance floor flips the gate."""
    code, report = _run(tmp_path, _payload(speedup=0.3), baseline_file)
    assert code == 1
    failed = [c for c in report["checks"] if not c["ok"]]
    assert any(c["check"] == "speedup-retained" for c in failed)


def test_tolerance_is_respected(tmp_path, baseline_file):
    """A modest dip inside the tolerance band passes."""
    code, _ = _run(
        tmp_path, _payload(speedup=3.0), baseline_file,
        extra=["--tolerance", "0.5"],
    )
    assert code == 0
    code, _ = _run(
        tmp_path, _payload(speedup=3.0), baseline_file,
        extra=["--tolerance", "0.1"],
    )
    assert code == 1


def test_sub_unity_committed_speedup_is_not_gated(tmp_path):
    """No win committed (speedup < 1) means no speedup check."""
    baseline = _payload(speedup=0.8)
    path = tmp_path / "BENCH_pr1.json"
    path.write_text(json.dumps(baseline), encoding="utf-8")
    code, report = _run(tmp_path, _payload(speedup=0.4), path)
    assert code == 0
    skipped = [
        c for c in report["checks"] if c["check"] == "speedup-retained"
    ]
    assert skipped and skipped[0]["ok"]


def test_wrong_schema_rejected(tmp_path, baseline_file):
    """A payload with an unknown schema tag errors out."""
    fresh = _payload()
    fresh["schema"] = "something-else/9"
    fresh_path = tmp_path / "BENCH_smoke.json"
    fresh_path.write_text(json.dumps(fresh), encoding="utf-8")
    assert gate.main([str(fresh_path), "--baseline",
                      str(baseline_file)]) == 1


def test_newest_baseline_wins(tmp_path):
    """With several baselines, the name-sorted last one sets the bar."""
    old = _payload(speedup=20.0)
    new = _payload(speedup=2.0)
    old_path = tmp_path / "BENCH_pr1.json"
    new_path = tmp_path / "BENCH_pr2.json"
    old_path.write_text(json.dumps(old), encoding="utf-8")
    new_path.write_text(json.dumps(new), encoding="utf-8")
    fresh = copy.deepcopy(_payload(speedup=1.9))
    fresh_path = tmp_path / "BENCH_smoke.json"
    fresh_path.write_text(json.dumps(fresh), encoding="utf-8")
    code = gate.main(
        [
            str(fresh_path),
            "--baseline", str(old_path),
            "--baseline", str(new_path),
        ]
    )
    assert code == 0


def test_repo_baselines_exist_and_parse():
    """The committed BENCH_*.json files stay loadable by the gate."""
    repo_root = _TOOLS.parent
    baselines = sorted(repo_root.glob("BENCH_*.json"))
    assert baselines, "no committed BENCH baselines found"
    chosen = gate.collect_baselines(baselines)
    assert "edit_verify" in chosen
