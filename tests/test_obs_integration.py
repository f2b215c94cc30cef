"""End-to-end telemetry: spans and metrics from real engine traffic.

The headline assertion lives here: a socket-transport cluster query
produces **one** coherent trace tree -- shard spans generated in
worker processes parented under the coordinator's query span -- plus
the metrics-side checks that the pipeline hot paths really feed the
registry, and that the CLI exposes both.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.cluster import SilkMothCluster
from repro.core.config import SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.core.stats import PASS_COUNTERS, PassStats, fold
from repro.obs import get_registry, reset_registry, to_prometheus_text
from repro.obs.instrument import handles, observe_pass
from repro.obs.sketch import get_sketch_registry, reset_sketch_registry
from repro.obs.trace import get_tracer, set_trace_enabled
from repro.sim.functions import SimilarityKind


def observe(block):
    """``observe_pass`` as the engine's runner calls it: a block of
    passes and their fold."""
    total = PassStats()
    fold(total, *block)
    observe_pass(total, block)


DATA = [
    ["apple pie", "apple tart"],
    ["apple pie", "apple strudel"],
    ["banana split", "banana bread"],
    ["cherry cola", "cherry pie"],
]


@pytest.fixture(autouse=True)
def clean_telemetry():
    get_tracer().drain()
    yield
    set_trace_enabled(None)
    get_tracer().drain()


def _children(spans, parent):
    return [s for s in spans if s["parent_id"] == parent["span_id"]]


class TestSingleNodeTrace:
    def test_service_query_span_tree(self):
        set_trace_enabled(True)
        collection = SetCollection.from_strings(DATA)
        engine = SilkMoth(collection, SilkMothConfig(delta=0.3))
        engine.search(collection[0], skip_set=0)
        spans = get_tracer().drain()
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        (pass_span,) = by_name["pipeline.pass"]
        stage_names = {
            s["name"] for s in _children(spans, pass_span)
        }
        assert stage_names == {
            "stage.signature",
            "stage.select",
            "stage.check",
            "stage.nn",
            "stage.verify",
        }
        assert pass_span["attrs"]["scheme"]
        assert "matches" in pass_span["attrs"]


class TestClusterTrace:
    @pytest.mark.parametrize("transport", ["inline", "socket"])
    def test_one_trace_tree_across_processes(self, transport):
        set_trace_enabled(True)
        with SilkMothCluster.from_sets(
            DATA, SilkMothConfig(delta=0.3), shards=2, transport=transport
        ) as cluster:
            cluster.search(["apple pie", "apple tart"])
        spans = get_tracer().drain()
        set_trace_enabled(None)

        queries = [s for s in spans if s["name"] == "service.query"]
        assert len(queries) == 1
        query = queries[0]
        # Every span -- including the ones produced inside worker
        # processes -- belongs to the coordinator's single trace.
        cluster_spans = [
            s for s in spans if s["trace_id"] == query["trace_id"]
        ]
        shard_spans = [
            s for s in cluster_spans if s["name"] == "shard.search"
        ]
        assert len(shard_spans) >= 1
        (cluster_query,) = [
            s for s in cluster_spans if s["name"] == "cluster.query"
        ]
        for shard_span in shard_spans:
            assert shard_span["parent_id"] == cluster_query["span_id"]
        # Each shard pass carries the full pipeline underneath it.
        pass_spans = [
            s for s in cluster_spans if s["name"] == "pipeline.pass"
        ]
        assert {s["parent_id"] for s in pass_spans} <= {
            s["span_id"] for s in shard_spans
        }
        if transport == "socket":
            # Spans really crossed process boundaries.
            pids = {s["pid"] for s in cluster_spans}
            assert len(pids) >= 2
            coordinator_pid = query["pid"]
            assert any(s["pid"] != coordinator_pid for s in shard_spans)

    def test_traced_discovery_parents_shard_passes_under_blocks(self):
        set_trace_enabled(True)
        sets = DATA * 5  # 19 reference passes: blocks of 8, 8 and 3
        with SilkMothCluster.from_sets(
            sets, SilkMothConfig(delta=0.3), shards=2, transport="socket"
        ) as cluster:
            cluster.discover()
            routed = cluster.stats.shards_routed_total
        spans = get_tracer().drain()
        set_trace_enabled(None)

        (discover,) = [s for s in spans if s["name"] == "cluster.discover"]
        queries = {
            s["span_id"]: s for s in spans if s["name"] == "cluster.query"
        }
        assert sorted(q["attrs"]["references"] for q in queries.values()) == [
            3, 8, 8
        ]
        assert all(
            q["parent_id"] == discover["span_id"] for q in queries.values()
        )
        shard_spans = [s for s in spans if s["name"] == "shard.search"]
        assert len(shard_spans) == routed
        assert any(s["pid"] != discover["pid"] for s in shard_spans)
        for shard_span in shard_spans:
            assert shard_span["trace_id"] == discover["trace_id"]
            assert shard_span["parent_id"] in queries

    def test_tracing_off_ships_no_spans(self):
        set_trace_enabled(False)
        with SilkMothCluster.from_sets(
            DATA, SilkMothConfig(delta=0.3), shards=2, transport="inline"
        ) as cluster:
            cluster.search(["apple pie", "apple tart"])
        assert get_tracer().drain() == []


class TestMetricsFromTraffic:
    def test_engine_traffic_feeds_the_funnel_and_pass_families(self):
        registry = reset_registry()
        sketches = reset_sketch_registry()
        collection = SetCollection.from_strings(DATA)
        engine = SilkMoth(collection, SilkMothConfig(delta=0.3))
        engine.discover()
        assert registry is get_registry()
        passes = registry.get("silkmoth_passes_total")
        total_passes = sum(
            child.value for _, child in passes.series()
        )
        # Symmetric self-discovery: every reference but the last (which
        # has no set after it) runs a pass.
        assert total_passes == len(DATA) - 1
        funnel = registry.get("silkmoth_candidates_total")
        assert funnel.value(stage="initial") >= funnel.value(stage="verified")
        pass_latency = sketches.get("silkmoth_pass_latency_quantile")
        assert sum(
            sketch.count for _, sketch in pass_latency.series()
        ) == len(DATA) - 1

    def test_stage_sketch_sums_are_the_engine_stage_seconds(self):
        """One latency recorder: a summary's ``_sum`` is the run's total."""
        reset_registry()
        sketches = reset_sketch_registry()
        engine = SilkMoth(
            SetCollection.from_strings(DATA), SilkMothConfig(delta=0.3)
        )
        engine.discover()
        family = sketches.get("silkmoth_stage_latency_quantile")
        sums = {labels[0]: sketch.sum for labels, sketch in family.series()}
        assert sums and sums == engine.stats.stage_seconds  # bit for bit

    def test_every_pass_counter_but_signature_tokens_has_a_family(self):
        assert set(handles().pass_counters) == (
            set(PASS_COUNTERS) - {"signature_tokens"}
        )

    def test_pre_bound_series_sum_the_passes_and_rebind_on_reset(self):
        """observe_pass writes a block through series bound on first
        use; the families still equal the summed fields, and a reset of
        either registry sends the next pass to the new one."""
        registry = reset_registry()
        sketches = reset_sketch_registry()

        def stats(scheme, memo_hits, full_scan=False):
            s = PassStats(
                scheme=scheme, full_scan=full_scan, initial_candidates=5,
                after_check=4, after_nn=3, verified=3, matches=2,
                sim_cache_hits=memo_hits, select_postings_scanned=7,
                select_distinct_pairs=6, select_size_gate_drops=1,
            )
            s.stage_seconds = {"signature": 0.25, "select": 0.5}
            return s

        passes = [
            stats("weighted", 0), stats("dichotomy", 3),
            stats("weighted", 0, full_scan=True), stats("weighted", 2),
        ]
        observe(passes[:1])  # binds the series ...
        observe(passes[1:])  # ... a later block writes through
        by_scheme = registry.get("silkmoth_passes_total")
        assert by_scheme.value(scheme="weighted") == 3
        assert by_scheme.value(scheme="dichotomy") == 1
        for name, (family, labels, _) in handles().pass_counters.items():
            assert family.value(**labels) == sum(
                getattr(s, name) for s in passes
            ), name
        # A zero memo count opens no series.
        lookups = registry.get("silkmoth_sim_cache_lookups_total")
        assert [labels for labels, _ in lookups.series()] == [("hit",)]
        assert registry.get("silkmoth_full_scans_total").value() == 1
        stage = sketches.get("silkmoth_stage_latency_quantile")
        assert {k: s.count for k, s in stage.series()} == {
            ("select",): 4, ("signature",): 4,
        }
        (_, whole), = sketches.get("silkmoth_pass_latency_quantile").series()
        assert whole.count == 4 and whole.sum == 3.0

        registry, sketches = reset_registry(), reset_sketch_registry()
        observe([stats("weighted", 1)])
        assert registry.get("silkmoth_passes_total").value(scheme="weighted") == 1
        assert registry.get("silkmoth_candidates_total").value(
            stage="matches"
        ) == 2
        (_, whole), = sketches.get("silkmoth_pass_latency_quantile").series()
        assert whole.count == 1

    @pytest.mark.parametrize("kind", [SimilarityKind.JACCARD, SimilarityKind.EDS])
    def test_a_discovery_block_observes_as_its_passes_one_by_one(self, kind):
        """``discover()`` observes its passes in one call when the block
        returns: every counter and every sketch's count and sum equal
        observing each pass on its own."""

        def observed():
            counters = {
                (family.name, labels): child.value
                for family in get_registry().families()
                for labels, child in family.series()
            }
            sketches = {
                (family.name, labels): (sketch.count, sketch.sum)
                for family in get_sketch_registry().families()
                for labels, sketch in family.series()
            }
            return counters, sketches

        reset_registry()
        reset_sketch_registry()
        alpha = 0.5 if kind.is_edit_based else 0.0
        config = SilkMothConfig(similarity=kind, delta=0.3, alpha=alpha)
        collection = SetCollection.from_strings(
            DATA, kind=kind, q=config.effective_q
        )
        engine = SilkMoth(collection, config)
        engine.discover()
        block = observed()
        reset_registry()
        reset_sketch_registry()
        for stats in engine.stats.per_pass:
            observe([stats])
        assert observed() == block
        counters, sketches = block
        passes = engine.stats.passes
        assert passes == len(DATA) - 1
        assert sketches[("silkmoth_pass_latency_quantile", ())][0] == passes
        assert counters[("silkmoth_candidates_total", ("matches",))] == (
            engine.stats.matches
        )

    @pytest.mark.parametrize(
        "family",
        ["silkmoth_passes_total", "silkmoth_pass_latency_quantile"],
    )
    def test_pass_families_carry_no_backend_label(self, family):
        """One compute backend: a ``backend`` label would be a constant."""
        registry = reset_registry()
        sketches = reset_sketch_registry()
        SilkMoth(SetCollection.from_strings(DATA), SilkMothConfig(delta=0.3)).discover()
        metric = registry.get(family) or sketches.get(family)
        assert metric.series(), "discovery traffic reaches the family"
        assert "backend" not in metric.label_names
        assert metric.label_names == (
            ("scheme",) if family == "silkmoth_passes_total" else ()
        )

    def test_cluster_traffic_feeds_routing_families(self):
        registry = reset_registry()
        with SilkMothCluster.from_sets(
            DATA, SilkMothConfig(delta=0.3), shards=2, transport="inline"
        ) as cluster:
            cluster.search(["apple pie", "apple tart"])
        routed = registry.get("silkmoth_shards_routed_total").value()
        skipped = registry.get("silkmoth_shards_skipped_total").value()
        assert routed + skipped == 2
        assert registry.get("silkmoth_queries_total").value(result="miss") == 1


class TestCliTelemetry:
    def test_stats_metrics_prom_lints_clean(self, tmp_path, capsys):
        reset_registry()
        data = tmp_path / "data.txt"
        data.write_text("apple pie\napple tart\nbanana split\n")
        assert main(
            ["stats", str(data), "--metrics", "prom", "--delta", "0.2"]
        ) == 0
        text = capsys.readouterr().out
        assert "# TYPE silkmoth_passes_total counter" in text
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "check_metrics_format",
            Path(__file__).resolve().parent.parent
            / "tools"
            / "check_metrics_format.py",
        )
        lint = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(lint)
        assert lint.lint(text) == []

    def test_stats_metrics_json_parses(self, tmp_path, capsys):
        reset_registry()
        data = tmp_path / "data.txt"
        data.write_text("apple pie\napple tart\n")
        assert main(
            ["stats", str(data), "--metrics", "json", "--delta", "0.2"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "silkmoth-metrics/1"

    def test_trace_export_and_flame_subcommand(
        self, tmp_path, capsys, monkeypatch
    ):
        data = tmp_path / "data.txt"
        data.write_text("apple pie\napple tart\n")
        trace_path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("SILKMOTH_TRACE", "1")
        monkeypatch.setenv("SILKMOTH_TRACE_EXPORT", str(trace_path))
        set_trace_enabled(None)  # re-read the env
        assert main(
            ["discover", str(data), "--delta", "0.2", "--quiet"]
        ) == 0
        set_trace_enabled(None)
        assert trace_path.exists()
        for line in trace_path.read_text().splitlines():
            json.loads(line)
        capsys.readouterr()
        assert main(["trace", str(trace_path)]) == 0
        flame = capsys.readouterr().out
        assert "pipeline.pass" in flame
        assert "stage.verify" in flame
