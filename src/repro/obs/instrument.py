"""Bridge from the existing stats hot paths to the metrics registry.

The engine already measures everything worth knowing -- per-stage
seconds and the candidate funnel in ``PassStats``, query latency and
cache outcomes in ``ServiceStats``, shard fan-out in ``ClusterPassStats`` --
so this module does not time anything itself.  It translates those
objects into registry updates at the moments they are recorded:

* :func:`observe_pass` from the engine's runner, per block of passes;
* :func:`observe_query` from ``ServiceStats.record_query``;
* :func:`observe_routing` from ``ClusterStats.record_routing``;
* :func:`observe_mutation` and :func:`observe_invalidations` from
  ``QueryFront._written`` (one user write, and the cache entries it
  dropped), plus ``compact`` from each node's ``compact``;
  :func:`observe_cache_refresh` from ``QueryFront._current`` (one stale
  entry completed);
* :func:`observe_snapshot` / :func:`observe_transport_error` from
  their respective call sites.

Counts go to the counter families; every latency goes to exactly one
``silkmoth_*_quantile`` sketch family, whose summary ``_sum`` /
``_count`` are the totals.  Handles are resolved lazily and cached
against the registry instance, so tests that call
:func:`repro.obs.metrics.reset_registry` (or reset the sketch
registry) get fresh families on the next observation; so are the
series :func:`observe_pass` writes, each on its first write.
"""

from __future__ import annotations

from typing import Optional

from .metrics import MetricsRegistry, get_registry
from .sketch import SketchRegistry, get_sketch_registry


class _Bound(dict):
    """Key -> its series, bound (so opened) the first time it is used."""

    def __init__(self, bind) -> None:
        self.bind = bind

    def __missing__(self, key):
        series = self[key] = self.bind(key)
        return series


class _Handles:
    """Counter families registered once per registry instance."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.queries = registry.register(
            "silkmoth_queries_total",
            "Service queries by cache outcome.",
            ("result",),
        )
        self.passes = registry.register(
            "silkmoth_passes_total",
            "Cold pipeline passes by scheme.",
            ("scheme",),
        )
        candidates = registry.register(
            "silkmoth_candidates_total",
            "Candidate-funnel counts by funnel point.",
            ("stage",),
        )
        self.full_scans = registry.register(
            "silkmoth_full_scans_total",
            "Passes that fell back to a full scan.",
        )
        sim_cache = registry.register(
            "silkmoth_sim_cache_lookups_total",
            "Similarity-kernel memo lookups by outcome.",
            ("result",),
        )
        select_postings_scanned = registry.register(
            "silkmoth_select_postings_scanned_total",
            "Index-list entries the packed selection kernel read "
            "(posting keys; content-list entries for token kinds).",
        )
        select_distinct_pairs = registry.register(
            "silkmoth_select_distinct_pairs_total",
            "Distinct pairs the selection kernel scored after its merge "
            "dedup: per posting key, per distinct content for token kinds "
            "(scanned / distinct is the dedup ratio).",
        )
        select_size_gate_drops = registry.register(
            "silkmoth_select_size_gate_drops_total",
            "What the size gate alone dropped in selection: merged "
            "posting keys, candidate sets for token kinds.",
        )
        #: ``PassStats`` counter -> (family, labels, whether a zero
        #: still opens the series).  The funnel points and the select
        #: counters show from the first pass on, memo lookups once one
        #: happened.  ``signature_tokens`` has no family.
        self.pass_counters = {
            "initial_candidates": (candidates, {"stage": "initial"}, True),
            "after_check": (candidates, {"stage": "after_check"}, True),
            "after_nn": (candidates, {"stage": "after_nn"}, True),
            "verified": (candidates, {"stage": "verified"}, True),
            "matches": (candidates, {"stage": "matches"}, True),
            "sim_cache_hits": (sim_cache, {"result": "hit"}, False),
            "sim_cache_misses": (sim_cache, {"result": "miss"}, False),
            "select_postings_scanned": (select_postings_scanned, {}, True),
            "select_distinct_pairs": (select_distinct_pairs, {}, True),
            "select_size_gate_drops": (select_size_gate_drops, {}, True),
        }
        counters = self.pass_counters
        self.scheme_series = _Bound(lambda s: self.passes.child(scheme=s))
        self.counter_series = _Bound(
            lambda name: counters[name][0].child(**counters[name][1])
        )
        self.shards_routed = registry.register(
            "silkmoth_shards_routed_total",
            "Shards actually queried across cluster passes.",
        )
        self.shards_skipped = registry.register(
            "silkmoth_shards_skipped_total",
            "Shards a discovery pass skipped: none at or above its floor.",
        )
        self.mutations = registry.register(
            "silkmoth_mutations_total",
            "User writes and compactions by kind "
            "(add/remove/update/compact), on the node that took them.",
            ("kind",),
        )
        self.invalidations = registry.register(
            "silkmoth_cache_invalidations_total",
            "Result-cache entries writes dropped, by reason (uncertified).",
            ("reason",),
        )
        self.refreshes = registry.register(
            "silkmoth_cache_refreshes_total",
            "Stale result-cache entries completed by a floored pass.",
        )
        self.snapshots = registry.register(
            "silkmoth_snapshot_io_total",
            "Snapshot loads and saves.",
            ("direction",),
        )
        self.transport_errors = registry.register(
            "silkmoth_transport_errors_total",
            "Shard transport round-trips that raised.",
        )
        self.failovers = registry.register(
            "silkmoth_failovers_total",
            "Shard requests retried on another replica.",
        )
        self.replica_deaths = registry.register(
            "silkmoth_replica_deaths_total",
            "Shard replicas marked unhealthy and torn down.",
        )
        self.degraded_queries = registry.register(
            "silkmoth_degraded_queries_total",
            "Operations that failed because a shard lost every replica.",
        )
        self.wal_appends = registry.register(
            "silkmoth_wal_appends_total",
            "Write-ahead-log records appended, by mutation op.",
            ("op",),
        )
        self.wal_bytes = registry.register(
            "silkmoth_wal_bytes_total",
            "Bytes appended to the write-ahead log.",
        )
        self.wal_checkpoints = registry.register(
            "silkmoth_wal_checkpoints_total",
            "WAL checkpoints taken (snapshot + log truncation).",
        )
        self.wal_recoveries = registry.register(
            "silkmoth_wal_recoveries_total",
            "Services rebuilt from a checkpoint plus log replay.",
        )
        self.wal_replayed = registry.register(
            "silkmoth_wal_replayed_records_total",
            "Log records re-applied during WAL recoveries.",
        )
        self.wal_torn_tails = registry.register(
            "silkmoth_wal_torn_tails_total",
            "Recoveries that dropped one torn trailing record.",
        )


class _SketchHandles:
    """Quantile-sketch families registered once per sketch registry."""

    def __init__(self, registry: SketchRegistry) -> None:
        self.registry = registry
        self.query_latency = registry.register(
            "silkmoth_query_latency_quantile",
            "End-to-end service query latency quantiles (seconds).",
        )
        self.stage_latency = registry.register(
            "silkmoth_stage_latency_quantile",
            "Per-stage pipeline latency quantiles (seconds).",
            ("stage",),
        )
        self.pass_latency = registry.register(
            "silkmoth_pass_latency_quantile",
            "Whole-pass pipeline latency quantiles (seconds).",
        )
        #: Stage -> its sketch; ``None`` -> the whole-pass sketch.
        self.series = _Bound(
            lambda stage: self.stage_latency.child(stage=stage)
            if stage else self.pass_latency.child()
        )


_handles: Optional[_Handles] = None
_sketch_handles: Optional[_SketchHandles] = None


def handles() -> _Handles:
    """Current handle set, rebuilt if the registry was reset."""
    global _handles
    registry = get_registry()
    if _handles is None or _handles.registry is not registry:
        _handles = _Handles(registry)
    return _handles


def sketch_handles() -> _SketchHandles:
    """Current sketch handle set, rebuilt if the registry was reset."""
    global _sketch_handles
    registry = get_sketch_registry()
    if _sketch_handles is None or _sketch_handles.registry is not registry:
        _sketch_handles = _SketchHandles(registry)
    return _sketch_handles


def observe_pass(total, block) -> None:
    """Write a runner's block of cold passes into the registries: the
    counters of their fold *total* once, then each pass's scheme, scan
    and latencies in order."""
    h = handles()
    for name, (_, _, keep_zero) in h.pass_counters.items():
        value = getattr(total, name)
        if value or keep_zero:
            h.counter_series[name].value += value
    sketches = sketch_handles().series
    for stats in block:
        h.scheme_series[stats.scheme or "unknown"].value += 1
        if stats.full_scan:
            h.full_scans.inc()
        seconds = 0.0
        for stage, stage_seconds in stats.stage_seconds.items():
            sketches[stage].record(stage_seconds)
            seconds += stage_seconds
        sketches[None].record(seconds)


def observe_query(latency: float, cache_hit: bool) -> None:
    """Record one service query's latency and cache outcome."""
    handles().queries.inc(result="hit" if cache_hit else "miss")
    sketch_handles().query_latency.record(latency)


def observe_routing(cluster_pass) -> None:
    """Record one ``ClusterPassStats`` worth of fan-out outcomes."""
    h = handles()
    h.shards_routed.inc(cluster_pass.shards_routed)
    h.shards_skipped.inc(cluster_pass.shards_skipped)


def observe_mutation(kind: str) -> None:
    """Record one write or compaction (``add``/``remove``/``update``/
    ``compact``)."""
    handles().mutations.inc(kind=kind)


def observe_invalidations(reason: str, dropped: int) -> None:
    """Record *dropped* result-cache entries one write dropped for *reason*."""
    if dropped:
        handles().invalidations.inc(dropped, reason=reason)


def observe_cache_refresh() -> None:
    """Record one stale result-cache entry completed on a hit."""
    handles().refreshes.inc()


def observe_snapshot(direction: str) -> None:
    """Record one snapshot ``save`` or ``load``."""
    handles().snapshots.inc(direction=direction)


def observe_transport_error() -> None:
    """Record one failed shard transport round-trip."""
    handles().transport_errors.inc()


def observe_failover() -> None:
    """Record one request retried on another replica."""
    handles().failovers.inc()


def observe_replica_death() -> None:
    """Record one replica marked unhealthy and torn down."""
    handles().replica_deaths.inc()


def observe_degraded() -> None:
    """Record one operation lost to a fully-dead shard."""
    handles().degraded_queries.inc()


def observe_wal_append(op: str, nbytes: int) -> None:
    """Record one WAL record append and its on-disk size."""
    h = handles()
    h.wal_appends.inc(op=op)
    h.wal_bytes.inc(nbytes)


def observe_wal_checkpoint() -> None:
    """Record one WAL checkpoint (snapshot + truncation)."""
    handles().wal_checkpoints.inc()


def observe_wal_recovery(replayed: int, torn_tail: bool) -> None:
    """Record one completed WAL recovery and its replay size."""
    h = handles()
    h.wal_recoveries.inc()
    if replayed:
        h.wal_replayed.inc(replayed)
    if torn_tail:
        h.wal_torn_tails.inc()
