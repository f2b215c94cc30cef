"""Measured-cost calibration of the planner's backend choice.

The ROADMAP's "calibrate from measured timings" item, minimal version:
when ``SILKMOTH_COST_PROFILE`` points at a perf-trajectory file, the
cost model must prefer the measured-fastest backend over its fixed
probe-work cutover -- and must keep every exactness property
untouched (the backend never changes results, only speed).
"""

import json

import pytest

from repro.backends import available_backends
from repro.core.config import SilkMothConfig
from repro.planner.cost import (
    MEASURED_COSTS_ENV_VAR,
    MeasuredCosts,
    choose_backend,
    load_measured_costs,
)
from repro.planner.planner import plan_query


def _profile(tmp_path, backends):
    payload = {
        "schema": "silkmoth-perf-trajectory/1",
        "calibration": {"backends": backends},
    }
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadMeasuredCosts:
    def test_unset_returns_none(self, monkeypatch):
        monkeypatch.delenv(MEASURED_COSTS_ENV_VAR, raising=False)
        assert load_measured_costs() is None

    def test_parses_backend_seconds(self, tmp_path):
        path = _profile(
            tmp_path,
            {"python": {"seconds": 1.5}, "numpy": {"seconds": 0.5}},
        )
        costs = load_measured_costs(path)
        assert costs.backend_seconds == {"python": 1.5, "numpy": 0.5}
        assert costs.source == path

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read cost profile"):
            load_measured_costs(str(tmp_path / "absent.json"))

    def test_profile_without_timings_raises(self, tmp_path):
        path = _profile(tmp_path, {"python": {"seconds": "broken"}})
        with pytest.raises(ValueError, match="no calibration"):
            load_measured_costs(path)


class TestChooseBackendMeasured:
    def test_measured_fastest_wins(self):
        costs = MeasuredCosts(
            backend_seconds={"python": 0.2, "numpy": 1.0}, source="bench.json"
        )
        backend, reason = choose_backend(None, costs)
        if "numpy" in available_backends():
            assert backend == "python"
            assert "measured fastest" in reason
        else:
            # One available backend -> one timing -> no comparison.
            assert backend == "python"

    def test_single_timing_falls_back_to_heuristics(self):
        costs = MeasuredCosts(
            backend_seconds={"python": 0.2}, source="bench.json"
        )
        backend, reason = choose_backend(None, costs)
        assert "measured" not in reason

    def test_plan_query_consumes_the_env_profile(self, tmp_path, monkeypatch):
        path = _profile(
            tmp_path,
            {"python": {"seconds": 0.1}, "numpy": {"seconds": 9.9}},
        )
        monkeypatch.setenv(MEASURED_COSTS_ENV_VAR, path)
        # SILKMOTH_BACKEND outranks the cost model by design; clear it
        # so this test exercises the measured path regardless of the
        # CI matrix leg it runs on.
        monkeypatch.delenv("SILKMOTH_BACKEND", raising=False)
        decision = plan_query(SilkMothConfig())
        if "numpy" in available_backends():
            assert decision.backend == "python"
            assert any("measured fastest" in r for r in decision.reasons)

    def test_pinned_backend_ignores_measurements(self, tmp_path, monkeypatch):
        path = _profile(
            tmp_path,
            {"python": {"seconds": 9.9}, "numpy": {"seconds": 0.1}},
        )
        monkeypatch.setenv(MEASURED_COSTS_ENV_VAR, path)
        decision = plan_query(SilkMothConfig(backend="python"))
        assert decision.backend == "python"
        assert decision.backend_source == "config"
