"""Sketch properties: error bound, exact merges, cluster-wide folds.

The diagnostics layer stands on two claims about
:class:`repro.obs.sketch.QuantileSketch`: every quantile estimate is
within ``alpha`` relative error of the true rank value, and merging is
*exact* -- associative, commutative, and equal to one sketch that
recorded everything.  Hypothesis pins both, and the cluster tests pin
the consequence users see: the coordinator's merged quantiles equal
the union of the shard recordings, over worker processes.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import SilkMothCluster
from repro.core.config import SilkMothConfig
from repro.obs.sketch import (
    QuantileSketch,
    SketchRegistry,
    get_sketch_registry,
    merge_payloads,
    quantile_summary,
    reset_sketch_registry,
    set_sketch_alpha,
)
from repro.settings import resolve

DATA = [
    ["ash bay", "elm fir"],
    ["ash bay elm", "oak"],
    ["sky yew", "ivy"],
    ["ash", "fir elm"],
    ["oak sky", ""],
]

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

values_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=120,
)


@pytest.fixture(autouse=True)
def clean_sketches():
    """Fresh process-global sketch registry and alpha around each test."""
    reset_sketch_registry()
    set_sketch_alpha(None)
    yield
    reset_sketch_registry()
    set_sketch_alpha(None)


def _fill(values, alpha=0.01):
    sketch = QuantileSketch(alpha)
    for value in values:
        sketch.record(value)
    return sketch


@_SETTINGS
@given(values=values_strategy, q=st.floats(min_value=0.0, max_value=1.0))
def test_quantile_relative_error_bound(values, q):
    """Estimates stay within alpha of the true value at the queried rank."""
    alpha = 0.01
    sketch = _fill(values, alpha)
    estimate = sketch.quantile(q)
    truth = sorted(values)[math.floor(q * (len(values) - 1))]
    assert estimate is not None
    assert abs(estimate - truth) <= alpha * truth + 1e-12


@_SETTINGS
@given(values=values_strategy)
def test_extremes_are_exact(values):
    """q=0 / q=1 clamp to the observed min / max exactly."""
    sketch = _fill(values)
    assert sketch.quantile(0.0) == min(values)
    assert sketch.quantile(1.0) == max(values)


@_SETTINGS
@given(a=values_strategy, b=values_strategy, c=values_strategy)
def test_merge_is_associative_and_commutative(a, b, c):
    """Any merge order yields the same sketch as one global recorder."""
    left = _fill(a)
    left.merge(_fill(b))
    left.merge(_fill(c))
    right = _fill(b)
    right.merge(_fill(c))
    right.merge(_fill(a))
    single = _fill(a + b + c)
    assert left == right == single


@_SETTINGS
@given(values=values_strategy)
def test_to_dict_round_trip(values):
    """Serialisation preserves the merged state (and the sum closely)."""
    sketch = _fill(values)
    clone = QuantileSketch.from_dict(sketch.to_dict())
    assert clone == sketch
    assert clone.sum == pytest.approx(sketch.sum)


def test_zero_values_share_the_zero_bucket():
    """Exact zeros are representable and estimated exactly."""
    sketch = QuantileSketch(0.01)
    for _ in range(3):
        sketch.record(0.0)
    sketch.record(5.0)
    assert sketch.quantile(0.5) == 0.0
    assert sketch.quantile(1.0) == 5.0


def test_merge_rejects_mismatched_alpha():
    """Sketches with different error bounds must not silently merge."""
    with pytest.raises(ValueError):
        _fill([1.0], alpha=0.01).merge(_fill([1.0], alpha=0.05))


def test_negative_values_rejected():
    """Latencies are non-negative; a negative record is a caller bug."""
    with pytest.raises(ValueError):
        QuantileSketch(0.01).record(-1.0)


def test_resolve_sketch_alpha():
    """Env parsing: default, explicit value, and malformed values."""
    assert resolve("SILKMOTH_SKETCH_ALPHA", "") == 0.01
    assert resolve("SILKMOTH_SKETCH_ALPHA", "0.05") == 0.05
    with pytest.raises(ValueError):
        resolve("SILKMOTH_SKETCH_ALPHA", "nope")
    with pytest.raises(ValueError):
        resolve("SILKMOTH_SKETCH_ALPHA", "1.5")


def test_registry_label_clash_raises():
    """Re-registering with different label names is a hard error."""
    registry = SketchRegistry()
    registry.register("f", "help", ("stage",))
    assert registry.register("f", "help", ("stage",)).name == "f"
    with pytest.raises(ValueError):
        registry.register("f", "help", ("other",))


def test_merge_payloads_deduplicates_by_pid():
    """The same process's payload folds in exactly once."""
    registry = SketchRegistry()
    registry.register("f", "help", ("stage",)).record(1.0, stage="check")
    payload = registry.to_payload()
    merged = merge_payloads([payload, payload, None])
    family = merged.get("f")
    assert family is not None
    assert family.series()[0][1].count == 1
    other = dict(payload, pid=payload["pid"] + 1)
    merged = merge_payloads([payload, other])
    assert merged.get("f").series()[0][1].count == 2


def test_quantile_summary_shape():
    """The rollup keys series by labels with p50..p999 estimates."""
    registry = SketchRegistry()
    family = registry.register("f", "help", ("stage",))
    for value in (0.1, 0.2, 0.3):
        family.record(value, stage="check")
    registry.register("empty", "no recordings")
    summary = quantile_summary(registry)
    assert summary["empty"] == []
    (row,) = summary["f"]
    assert row["labels"] == {"stage": "check"}
    assert row["count"] == 3
    assert 0.1 <= row["p50"] <= 0.3
    assert row["p999"] >= row["p50"]


def _sketch_counts(registry):
    """family -> {label values: count} for comparing merged registries."""
    return {
        family.name: {
            key: sketch.count for key, sketch in family.series()
        }
        for family in registry.families()
        if any(sketch.count for _, sketch in family.series())
    }


def test_cluster_merge_equals_union_over_process_transport():
    """Coordinator-merged sketches equal the union of shard recordings.

    The same query runs on an inline cluster (single process: the
    "union" ground truth, since every shard records into one registry)
    and on a process-transport cluster (recordings spread across
    worker processes).  The merged per-stage/per-pass counts must be
    identical -- the submit/collect fold loses nothing.
    """
    config = SilkMothConfig(delta=0.3)
    with SilkMothCluster.from_sets(DATA, config, shards=2) as cluster:
        cluster.search(["ash bay"])
        cluster.discover()
        inline_counts = _sketch_counts(cluster.merged_sketches())
    reset_sketch_registry()
    with SilkMothCluster.from_sets(
        DATA, config, shards=2, transport="process"
    ) as cluster:
        cluster.search(["ash bay"])
        cluster.discover()
        merged = cluster.merged_sketches()
        remote_counts = _sketch_counts(merged)
        routed = cluster.last_pass.shards_routed
    pass_series = remote_counts.pop("silkmoth_pass_latency_quantile")
    inline_pass = inline_counts.pop("silkmoth_pass_latency_quantile")
    assert pass_series == inline_pass
    assert sum(pass_series.values()) >= routed
    stage_series = remote_counts.pop("silkmoth_stage_latency_quantile")
    inline_stage = inline_counts.pop("silkmoth_stage_latency_quantile")
    assert stage_series == inline_stage
    assert stage_series, "shards recorded no stage latencies"
    # The coordinator also timed its collect waits on the worker pipes.
    waits = remote_counts.pop("silkmoth_transport_wait_quantile")
    assert ("process",) in waits
    inline_counts.pop("silkmoth_transport_wait_quantile", None)
    assert remote_counts == inline_counts
    summary = quantile_summary(merged)
    for row in summary["silkmoth_stage_latency_quantile"]:
        assert row["p50"] is not None


def test_cluster_merged_quantiles_survive_reload(tmp_path):
    """A reloaded process-transport cluster still folds shard sketches."""
    config = SilkMothConfig(delta=0.3)
    manifest = tmp_path / "cluster.json"
    with SilkMothCluster.from_sets(DATA, config, shards=2) as cluster:
        cluster.save(manifest)
    loaded = SilkMothCluster.load(manifest, config, transport="process")
    try:
        loaded.search(["ash bay"])
        counts = _sketch_counts(loaded.merged_sketches())
    finally:
        loaded.close()
    assert "silkmoth_stage_latency_quantile" in counts


def test_get_sketch_registry_is_process_global():
    """Instrument hooks and exporters see one shared registry."""
    assert get_sketch_registry() is get_sketch_registry()
    fresh = reset_sketch_registry()
    assert get_sketch_registry() is fresh
