"""Unit tests for the metrics registry and its exporters.

Covers counter semantics, label validation, Prometheus text exposition
(label escaping, headers-only empty families), sketch-backed
``summary`` families, the determinism rules (name-sorted families,
sorted contiguous label sets, monotone quantiles) and the JSON
exposition -- plus the CI lint tool ``tools/check_metrics_format.py``
run against real output, and its refusal of the ``histogram`` and
``gauge`` types the exporter never emits.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs.export import to_json, to_prometheus_text
from repro.obs.metrics import MetricsRegistry, get_registry, reset_registry
from repro.obs.sketch import SketchRegistry

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_lint():
    spec = importlib.util.spec_from_file_location(
        "check_metrics_format", _TOOLS / "check_metrics_format.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRegistry:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        metric = registry.register("c_total", "help", ("kind",))
        metric.inc(kind="add")
        metric.inc(2, kind="add")
        assert metric.value(kind="add") == 3
        assert metric.value(kind="remove") == 0

    def test_counter_rejects_negative_and_wrong_labels(self):
        registry = MetricsRegistry()
        metric = registry.register("c_total", "help", ("kind",))
        with pytest.raises(ValueError):
            metric.inc(-1, kind="add")
        with pytest.raises(ValueError):
            metric.inc(other="add")

    def test_register_is_idempotent_but_label_clash_raises(self):
        registry = MetricsRegistry()
        first = registry.register("m", "help", ("kind",))
        assert registry.register("m", "other", ("kind",)) is first
        with pytest.raises(ValueError):
            registry.register("m", "help", ("other",))

    def test_reset_swaps_the_process_registry(self):
        before = get_registry()
        after = reset_registry()
        try:
            assert after is not before
            assert get_registry() is after
        finally:
            pass  # the fresh registry is fine to leave in place


class TestPrometheusText:
    def test_counter_and_label_escaping(self):
        registry = MetricsRegistry()
        metric = registry.register("c_total", "help text", ("k",))
        metric.inc(k='with "quote"\nand\\slash')
        text = to_prometheus_text(registry)
        assert "# HELP c_total help text" in text
        assert "# TYPE c_total counter" in text
        assert 'k="with \\"quote\\"\\nand\\\\slash"' in text

    def test_empty_family_emits_headers_only(self):
        registry = MetricsRegistry()
        registry.register("quiet_total", "help")
        text = to_prometheus_text(registry)
        assert "# TYPE quiet_total counter" in text
        assert "\nquiet_total " not in text

    def test_lint_tool_accepts_real_exposition(self):
        lint = _load_lint()
        registry = MetricsRegistry()
        counter = registry.register("c_total", "help", ("kind",))
        counter.inc(kind="add")
        counter.inc(kind="remove")
        registry.register("plain_total", "help").inc(2.5)
        assert lint.lint(to_prometheus_text(registry)) == []

    def test_lint_tool_rejects_broken_expositions(self):
        lint = _load_lint()
        # Sample without HELP/TYPE.
        assert lint.lint("orphan_total 1\n")
        # A negative counter.
        negative = "# HELP c_total help\n# TYPE c_total counter\nc_total -1\n"
        assert any("negative" in msg for _, msg in lint.lint(negative))

    def test_lint_tool_rejects_a_histogram_family(self):
        """Latencies live in the summaries; a histogram is a regression."""
        histogram = (
            "# HELP h help\n"
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 1\n'
            "h_sum 0.5\n"
            "h_count 1\n"
        )
        problems = [msg for _, msg in _load_lint().lint(histogram)]
        assert any("TYPE histogram" in msg for msg in problems)

    def test_lint_tool_rejects_a_gauge_family(self):
        gauge = "# HELP g help\n# TYPE g gauge\ng 2.5\n"
        problems = [msg for _, msg in _load_lint().lint(gauge)]
        assert any("TYPE gauge" in msg for msg in problems)


class TestSummaryExposition:
    def _sketches(self):
        sketches = SketchRegistry()
        family = sketches.register(
            "q_latency", "query latency", ("stage",)
        )
        for stage in ("check", "verify"):
            for value in (0.01, 0.02, 0.5):
                family.record(value, stage=stage)
        return sketches

    def test_sketch_family_renders_as_summary(self):
        text = to_prometheus_text(MetricsRegistry(), self._sketches())
        assert "# TYPE q_latency summary" in text
        assert 'q_latency{stage="check",quantile="0.5"}' in text
        assert 'q_latency_sum{stage="check"}' in text
        assert 'q_latency_count{stage="check"} 3' in text

    def test_summary_exposition_passes_lint(self):
        lint = _load_lint()
        registry = MetricsRegistry()
        registry.register("c_total", "help").inc()
        text = to_prometheus_text(registry, self._sketches())
        assert lint.lint(text) == []

    def test_families_merge_name_sorted(self):
        """Metric and sketch families interleave in one sorted stream."""
        registry = MetricsRegistry()
        registry.register("zz_total", "help").inc()
        registry.register("aa_total", "help").inc()
        text = to_prometheus_text(registry, self._sketches())
        order = [
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE ")
        ]
        assert order == sorted(order)
        assert "q_latency" in order

    def test_json_summary_entries(self):
        payload = json.loads(to_json(MetricsRegistry(), self._sketches()))
        by_name = {m["name"]: m for m in payload["metrics"]}
        entry = by_name["q_latency"]
        assert entry["kind"] == "summary"
        series = entry["series"][0]
        assert series["labels"] == ["check"]
        assert series["count"] == 3
        assert series["quantiles"]["0.5"] == pytest.approx(0.02, rel=0.05)


class TestDeterminismLint:
    def test_unsorted_family_order_flagged(self):
        lint = _load_lint()
        scrambled = (
            "# HELP z_total help\n"
            "# TYPE z_total counter\n"
            "z_total 1\n"
            "# HELP a_total help\n"
            "# TYPE a_total counter\n"
            "a_total 1\n"
        )
        assert any(
            "sorted name order" in msg for _, msg in lint.lint(scrambled)
        )

    def test_interleaved_series_flagged(self):
        lint = _load_lint()
        interleaved = (
            "# HELP c_total help\n"
            "# TYPE c_total counter\n"
            'c_total{kind="a"} 1\n'
            'c_total{kind="b"} 1\n'
            'c_total{kind="a"} 2\n'
        )
        assert any(
            "interleaved" in msg for _, msg in lint.lint(interleaved)
        )

    def test_unsorted_label_sets_flagged(self):
        lint = _load_lint()
        unsorted = (
            "# HELP c_total help\n"
            "# TYPE c_total counter\n"
            'c_total{kind="b"} 1\n'
            'c_total{kind="a"} 1\n'
        )
        assert any(
            "not in sorted order" in msg for _, msg in lint.lint(unsorted)
        )

    def test_quantile_order_and_monotonicity_flagged(self):
        lint = _load_lint()
        shuffled = (
            "# HELP s help\n"
            "# TYPE s summary\n"
            's{quantile="0.9"} 1.0\n'
            's{quantile="0.5"} 2.0\n'
            "s_sum 3.0\n"
            "s_count 2\n"
        )
        problems = [msg for _, msg in lint.lint(shuffled)]
        assert any("quantile labels not sorted" in msg for msg in problems)
        assert any("not monotone" in msg for msg in problems)

    def test_real_full_exposition_is_deterministic(self):
        """Two expositions of the same state are byte-identical."""
        registry = MetricsRegistry()
        registry.register("c_total", "help", ("k",)).inc(k="b")
        registry.get("c_total").inc(k="a")
        sketches = SketchRegistry()
        sketches.register("s_latency", "help", ("stage",)).record(
            0.1, stage="check"
        )
        first = to_prometheus_text(registry, sketches)
        second = to_prometheus_text(registry, sketches)
        assert first == second
        assert _load_lint().lint(first) == []


class TestJsonExport:
    def test_document_shape(self):
        registry = MetricsRegistry()
        counter = registry.register("c_total", "help", ("kind",))
        counter.inc(kind="add")
        payload = json.loads(to_json(registry))
        assert payload["schema"] == "silkmoth-metrics/1"
        by_name = {m["name"]: m for m in payload["metrics"]}
        assert by_name["c_total"]["kind"] == "counter"
        assert by_name["c_total"]["series"][0] == {
            "labels": ["add"], "value": 1,
        }
