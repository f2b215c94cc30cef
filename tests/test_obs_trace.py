"""Unit tests for the tracing layer (:mod:`repro.obs.trace`).

Covers the zero-cost disabled path, span nesting and attribute
capture, cross-process context propagation via ``collect_remote`` /
``ingest``, the JSONL export round-trip, the flame renderer, and that
tracing a search leaves its results bit-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.obs.trace import (
    _NOOP_CTX,
    collect_remote,
    current_context,
    export_jsonl,
    format_flame,
    get_tracer,
    ingest,
    load_jsonl,
    set_trace_enabled,
    span,
    trace_enabled,
)
from repro.settings import resolve
from repro.sim.functions import SimilarityKind

#: Clusters of perturbed copies of the same strings: most candidates
#: survive the filters, so every stage (check, NN, verify) runs.
EDIT_SETS = [
    ["silkmoth related sets", "maximum matching", "edit similarity"],
    ["silkmoth related set", "maximum matchings", "edit similarity"],
    ["silk moth related sets", "maximum matching", "edit similarty"],
    ["inverted index probe", "signature tokens", "check filter"],
    ["inverted index probes", "signature token", "check filters"],
    ["inverted indx probe", "signature tokens", "nn filter"],
]


@pytest.fixture(autouse=True)
def clean_tracer():
    """Drain the buffer and restore env-driven enablement per test."""
    get_tracer().drain()
    yield
    set_trace_enabled(None)
    get_tracer().drain()


class TestDisabled:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("SILKMOTH_TRACE", raising=False)
        set_trace_enabled(None)
        assert not trace_enabled()

    def test_disabled_span_is_the_shared_noop(self):
        set_trace_enabled(False)
        ctx_a = span("pipeline.pass", scheme="dichotomy")
        ctx_b = span("stage.verify")
        # Zero-allocation contract: every disabled call returns the
        # same singleton object.
        assert ctx_a is ctx_b is _NOOP_CTX
        with ctx_a as handle:
            handle.set_attr("ignored", 1)  # must not raise
        assert get_tracer().drain() == []

    def test_disabled_current_context_is_none(self):
        set_trace_enabled(False)
        assert current_context() is None


class TestEnabled:
    def test_nested_spans_share_a_trace_and_parent(self):
        set_trace_enabled(True)
        with span("service.query") as outer:
            outer.set_attr("cache", "miss")
            with span("pipeline.pass", scheme="dichotomy"):
                pass
        spans = get_tracer().drain()
        assert [s["name"] for s in spans] == ["pipeline.pass", "service.query"]
        inner, outer_span = spans
        assert inner["trace_id"] == outer_span["trace_id"]
        assert inner["parent_id"] == outer_span["span_id"]
        assert outer_span["parent_id"] is None
        assert outer_span["attrs"]["cache"] == "miss"
        assert inner["attrs"]["scheme"] == "dichotomy"
        assert inner["wall_seconds"] >= 0
        assert inner["cpu_seconds"] >= 0

    def test_sibling_roots_get_distinct_traces(self):
        set_trace_enabled(True)
        with span("a"):
            pass
        with span("b"):
            pass
        spans = get_tracer().drain()
        assert spans[0]["trace_id"] != spans[1]["trace_id"]

    def test_current_context_points_at_open_span(self):
        set_trace_enabled(True)
        assert current_context() is None
        with span("outer"):
            trace_id, span_id = current_context()
            with span("inner"):
                inner_trace, inner_span = current_context()
            assert inner_trace == trace_id
            assert inner_span != span_id
        assert current_context() is None


class TestRemotePropagation:
    def test_collect_remote_parents_under_the_given_context(self):
        set_trace_enabled(False)  # remote side: tracing off locally
        ctx = ("coordinator-trace", "coordinator-span")
        with collect_remote(ctx) as shipped:
            with span("shard.search", live_sets=3):
                pass
        # Force-enabled for the pass, restored afterwards.
        assert not trace_enabled()
        assert len(shipped) == 1
        assert shipped[0]["trace_id"] == "coordinator-trace"
        assert shipped[0]["parent_id"] == "coordinator-span"
        # Shipped spans were *moved* out of the local buffer: an inline
        # transport must not double-report them.
        assert get_tracer().drain() == []

    def test_collect_remote_without_context_is_passive(self):
        set_trace_enabled(False)
        with collect_remote(None) as shipped:
            with span("shard.search"):
                pass
        assert shipped == []
        assert get_tracer().drain() == []

    def test_ingest_feeds_the_export_buffer(self):
        payload = {
            "trace_id": "t",
            "span_id": "s",
            "parent_id": None,
            "name": "shard.search",
            "attrs": {},
            "wall_seconds": 0.1,
            "cpu_seconds": 0.1,
            "pid": 12345,
        }
        ingest([payload])
        assert get_tracer().drain() == [payload]


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        set_trace_enabled(True)
        with span("service.query"):
            with span("cache.probe"):
                pass
        path = tmp_path / "trace.jsonl"
        count = export_jsonl(path)
        assert count == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert {"trace_id", "span_id", "name", "wall_seconds"} <= set(record)
        assert load_jsonl(path) == [json.loads(line) for line in lines]
        # Export drains: a second export writes an empty file.
        assert export_jsonl(path) == 0

    def test_export_path_reads_env(self, monkeypatch):
        monkeypatch.delenv("SILKMOTH_TRACE_EXPORT", raising=False)
        assert resolve("SILKMOTH_TRACE_EXPORT") is None
        monkeypatch.setenv("SILKMOTH_TRACE_EXPORT", "/tmp/t.jsonl")
        assert resolve("SILKMOTH_TRACE_EXPORT") == Path("/tmp/t.jsonl")

    def test_format_flame_indents_children(self):
        set_trace_enabled(True)
        with span("cluster.query", shards=2):
            with span("cluster.collect"):
                pass
        text = format_flame(get_tracer().drain())
        lines = text.splitlines()
        assert any(line.startswith("trace ") for line in lines)
        query_line = next(l for l in lines if "cluster.query" in l)
        collect_line = next(l for l in lines if "cluster.collect" in l)
        assert "shards=2" in query_line
        indent = len(collect_line) - len(collect_line.lstrip())
        assert indent > len(query_line) - len(query_line.lstrip())


class TestExactness:
    def test_tracing_leaves_search_results_bit_identical(self):
        config = SilkMothConfig(similarity=SimilarityKind.EDS, delta=0.5, alpha=0.6)

        def search_all():
            collection = SetCollection.from_strings(
                EDIT_SETS, kind=config.similarity, q=config.effective_q
            )
            engine = SilkMoth(collection, config)
            return [
                (record.set_id, r.set_id, r.score, r.relatedness)
                for record in collection.iter_live()
                for r in engine.search(record, skip_set=record.set_id)
            ]

        set_trace_enabled(False)
        untraced = search_all()
        set_trace_enabled(True)
        traced = search_all()
        assert get_tracer().drain(), "tracing on recorded no spans"
        assert untraced, "fixture produced no matches"
        # ids, scores and relatedness values compare equal, no tolerance
        assert traced == untraced
