"""Slow-query log provenance and the service/cluster health rollups.

The acceptance property in test form: a query that crosses the
``SILKMOTH_SLOWLOG_MS`` threshold leaves a ring-buffer entry carrying
the planner's decision and every funnel counter, the ring stays
bounded, entries round-trip through JSONL, and ``health()`` folds the
sketches, caches, WAL and replication state into one document on both
the service and the cluster -- including the degraded path when a
shard loses all replicas.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterDegradedError, SilkMothCluster
from repro.cluster.faults import FaultEvent, FaultPlan
from repro.cluster.stats import ClusterStats
from repro.core.config import SilkMothConfig
from repro.obs.diag import (
    DEFAULT_SLOWLOG_CAPACITY,
    DEFAULT_SLOWLOG_MS,
    SlowQueryLog,
    format_health,
    format_slowlog,
    get_slowlog,
    load_slowlog_jsonl,
    reset_slowlog,
    resolve_slowlog_capacity,
    resolve_slowlog_ms,
    set_slowlog_ms,
)
from repro.obs.sketch import reset_sketch_registry
from repro.service import SilkMothService

DATA = [
    ["ash bay", "elm fir"],
    ["ash bay elm", "oak"],
    ["sky yew", "ivy"],
    ["ash", "fir elm"],
    ["oak sky", ""],
]

CONFIG = SilkMothConfig(delta=0.3)


@pytest.fixture(autouse=True)
def clean_diag():
    """Fresh slowlog, sketch registry and threshold around each test."""
    reset_slowlog()
    reset_sketch_registry()
    set_slowlog_ms(None)
    yield
    reset_slowlog()
    reset_sketch_registry()
    set_slowlog_ms(None)


def _service(**kwargs):
    service = SilkMothService(CONFIG, **kwargs)
    for elements in DATA:
        service.add_set(elements)
    return service


def test_resolve_slowlog_ms():
    """Env parsing: default, explicit, zero/negative, malformed."""
    assert resolve_slowlog_ms("") == DEFAULT_SLOWLOG_MS
    assert resolve_slowlog_ms("250") == 250.0
    assert resolve_slowlog_ms("0") == 0.0
    assert resolve_slowlog_ms("-1") == -1.0
    with pytest.raises(ValueError):
        resolve_slowlog_ms("fast")


def test_resolve_slowlog_capacity():
    """Capacity parsing rejects non-integers and values below one."""
    assert resolve_slowlog_capacity("") == DEFAULT_SLOWLOG_CAPACITY
    assert resolve_slowlog_capacity("8") == 8
    with pytest.raises(ValueError):
        resolve_slowlog_capacity("0")
    with pytest.raises(ValueError):
        resolve_slowlog_capacity("many")


def test_ring_buffer_is_bounded():
    """At capacity the oldest entries drop first."""
    log = SlowQueryLog(capacity=3)
    for i in range(5):
        log.add({"kind": "pass", "seconds": float(i)})
    assert len(log) == 3
    assert [entry["seconds"] for entry in log.entries()] == [2.0, 3.0, 4.0]


def test_slow_pass_captures_plan_provenance():
    """A threshold-crossing pass logs planner decision + full funnel."""
    set_slowlog_ms(0.0)
    service = _service()
    service.search(["ash bay"])
    entries = get_slowlog().entries()
    assert entries, "no slowlog entry captured at threshold 0"
    entry = entries[-1]
    assert entry["kind"] == "pass"
    assert entry["seconds"] >= 0.0
    assert entry["threshold_ms"] == 0.0
    planner = entry["planner"]
    assert planner is not None
    assert "scheme" in planner and "reasons" in planner
    funnel = entry["funnel"]
    for field in ("initial_candidates", "verified", "matches",
                  "select_postings_scanned", "select_distinct_pairs"):
        assert field in funnel
    assert entry["stage_seconds"]
    assert entry["reference_size"] >= 1
    assert set(entry["sim_cache"]) == {"hits", "misses"}


def test_capture_everything_leaves_results_bit_identical():
    """Logging every pass changes no id, score or relatedness value."""
    references = [elements for elements in DATA if any(elements)]
    set_slowlog_ms(-1.0)  # capture disabled entirely
    uncaptured = _service().search_many(references)
    set_slowlog_ms(0.0)  # capture every single pass
    captured = _service().search_many(references)
    assert len(get_slowlog()) > 0, "capture-everything mode logged nothing"
    assert any(uncaptured), "fixture produced no matches"
    assert captured == uncaptured


def test_threshold_gates_capture():
    """Huge thresholds capture nothing; negative disables entirely."""
    set_slowlog_ms(1e9)
    service = _service()
    service.search(["ash bay"])
    assert len(get_slowlog()) == 0
    set_slowlog_ms(-1.0)
    service.search(["oak sky"])
    assert len(get_slowlog()) == 0


def test_slow_cluster_query_names_shards():
    """A slow fan-out logs routing, per-shard seconds and merged funnel."""
    set_slowlog_ms(0.0)
    with SilkMothCluster.from_sets(DATA, CONFIG, shards=2) as cluster:
        cluster.search(["ash bay"])
    entries = [
        e for e in get_slowlog().entries() if e["kind"] == "cluster_query"
    ]
    assert entries, "no cluster_query slowlog entry captured"
    entry = entries[-1]
    shards = entry["shards"]
    assert shards["total"] == 2
    assert shards["routed"] + shards["skipped"] == 2
    assert len(entry["per_shard"]) == shards["routed"]
    for row in entry["per_shard"]:
        assert {"shard", "scheme", "seconds", "matches"} <= set(row)
    assert entry["failovers"] == 0
    assert entry["lost_shards"] == []
    assert "initial_candidates" in entry["funnel"]


def test_discovery_logs_one_cluster_query_per_reference(monkeypatch):
    """Blocked discovery still logs each reference pass on its own.

    Every pass of the block gets exactly one ``cluster_query`` entry,
    and each per-shard ``seconds`` is that shard's own summed stage
    seconds for that reference, not the block's.
    """
    shard_passes = []
    original = ClusterStats.record_pass

    def recording(self, stats):
        shard_passes.append(stats)
        return original(self, stats)

    monkeypatch.setattr(ClusterStats, "record_pass", recording)
    set_slowlog_ms(0.0)
    with SilkMothCluster.from_sets(DATA, CONFIG, shards=2) as cluster:
        cluster.discover()
        passes = cluster.run_stats.passes
    entries = [
        e for e in get_slowlog().entries() if e["kind"] == "cluster_query"
    ]
    assert passes == 4 and len(entries) == passes
    rows = [row for entry in entries for row in entry["per_shard"]]
    assert len(rows) == len(shard_passes) > passes
    for row, stats in zip(rows, shard_passes):
        assert row["seconds"] == sum(stats.stage_seconds.values()) > 0
        assert row["matches"] == stats.matches


def test_export_jsonl_round_trip(tmp_path):
    """Exported entries parse back identically, and the ring drains."""
    set_slowlog_ms(0.0)
    service = _service()
    service.search(["ash bay"])
    log = get_slowlog()
    before = log.entries()
    path = tmp_path / "slow.jsonl"
    assert log.export_jsonl(path) == len(before)
    assert len(log) == 0
    assert load_slowlog_jsonl(path) == before


def test_append_jsonl_accumulates_across_flushes(tmp_path):
    """The CLI's exit-time flush appends; empty flushes erase nothing."""
    path = tmp_path / "slow.jsonl"
    log = SlowQueryLog(capacity=8)
    log.add({"kind": "pass", "seconds": 1.0})
    assert log.append_jsonl(path) == 1
    log.add({"kind": "pass", "seconds": 2.0})
    assert log.append_jsonl(path) == 1
    assert log.append_jsonl(path) == 0  # empty ring: file untouched
    assert [e["seconds"] for e in load_slowlog_jsonl(path)] == [1.0, 2.0]


def test_format_slowlog_renders_provenance():
    """The text view shows planner, funnel and stage lines, slowest first."""
    set_slowlog_ms(0.0)
    service = _service()
    service.search(["ash bay"])
    text = format_slowlog(get_slowlog().entries())
    assert "planner:" in text
    assert "funnel:" in text
    assert "stages:" in text
    assert format_slowlog([]) == "slowlog is empty"
    fast = {"kind": "pass", "seconds": 0.001}
    slow = {"kind": "pass", "seconds": 9.0}
    two = format_slowlog([fast, slow], top=1)
    assert "9000.000ms" in two and "1.000ms" not in two


def test_service_health_document():
    """The service rollup carries schema, caches, WAL and latency."""
    service = _service()
    service.search(["ash bay"])
    payload = service.health()
    assert payload["schema"] == "silkmoth-health/1"
    assert payload["kind"] == "service"
    assert payload["status"] == "ok"
    assert payload["live_sets"] == len(DATA)
    assert payload["wal"]["enabled"] is False
    assert 0.0 <= payload["cache"]["hit_rate"] <= 1.0
    latency = payload["latency"]
    assert latency["silkmoth_query_latency_quantile"][0]["count"] >= 1
    assert latency["silkmoth_stage_latency_quantile"]
    text = format_health(payload)
    assert "status:" in text and "latency:" in text


def test_service_health_reports_wal(tmp_path):
    """With a WAL attached the rollup flags it and names a position."""
    service = _service(wal_dir=tmp_path / "wal")
    try:
        payload = service.health()
        assert payload["wal"]["enabled"] is True
        assert payload["wal"]["positions_known"] == 1
        assert "enabled" in format_health(payload)
    finally:
        service.close()


def test_cluster_health_document():
    """The cluster rollup merges shard sketches and replica state."""
    with SilkMothCluster.from_sets(DATA, CONFIG, shards=2) as cluster:
        cluster.search(["ash bay"])
        payload = cluster.health()
    assert payload["schema"] == "silkmoth-health/1"
    assert payload["kind"] == "cluster"
    assert payload["status"] == "ok"
    assert payload["shards"] == 2
    replication = payload["replication"]
    assert replication["healthy_replicas"] == replication["total_replicas"]
    assert replication["lost_shards"] == []
    assert payload["latency"]["silkmoth_stage_latency_quantile"]
    assert "replication:" in format_health(payload)


def test_cluster_health_degraded_when_shard_lost():
    """Losing every replica of a shard flips the rollup to degraded."""
    plan = FaultPlan([FaultEvent(kind="kill_shard", shard=1, replica=0,
                                 after=1)])
    with SilkMothCluster.from_sets(
        DATA, CONFIG, shards=2, replicas=1, fault_plan=plan, backoff=0.0
    ) as cluster:
        with pytest.raises(ClusterDegradedError):
            cluster.search(["ash bay"])
        payload = cluster.health()
    assert payload["status"] == "degraded"
    assert payload["replication"]["lost_shards"] == [1]
    assert payload["replication"]["healthy_replicas"] < (
        payload["replication"]["total_replicas"]
    )
    assert "degraded" in format_health(payload)
