"""Cluster-level observability: merged pass stats plus fan-out counters.

Each shard a pass reaches runs one ordinary pipeline pass and returns
its :class:`~repro.core.stats.PassStats`; the coordinator folds them
into a :class:`ClusterPassStats` -- the familiar funnel counters summed
across shards, plus how many shards the pass touched versus skipped.
A pass skips only a shard holding nothing at or above its floor
(symmetric self-discovery), so a plain search touches every shard.
:class:`ClusterStats` extends the service-lifetime counters with the
fan-out totals, so a long-lived cluster reports hit rates, latency
*and* how much of discovery's fan-out the floor saved from one object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.stats import PassStats, fold
from repro.obs.instrument import observe_routing
from repro.service.stats import ServiceStats


def merge_pass_stats(per_shard: list[PassStats]) -> PassStats:
    """Sum shard passes into one cluster-level :class:`PassStats`.

    Every :data:`~repro.core.stats.PASS_COUNTERS` field and the stage
    timings add (:func:`~repro.core.stats.fold`).  The merged pass is a
    full scan when any shard's was and keeps the first fallback reason;
    the scheme label keeps the unique value when every shard agrees and
    reads ``"mixed"`` otherwise (shards plan independently, so e.g. a
    small shard may pick the exhaustive scheme while a big one picks
    dichotomy).
    """
    merged = PassStats()
    schemes = {stats.scheme for stats in per_shard if stats.scheme}
    merged.scheme = schemes.pop() if len(schemes) == 1 else "mixed"
    if not per_shard:
        merged.scheme = ""
    for stats in per_shard:
        fold(merged, stats)
        merged.full_scan = merged.full_scan or stats.full_scan
        if stats.fallback_reason and not merged.fallback_reason:
            merged.fallback_reason = stats.fallback_reason
    return merged


@dataclass
class ClusterPassStats:
    """One cluster query's fan-out: shards touched + merged funnel."""

    #: How many shards the cluster holds.
    shards_total: int = 0
    #: Shards the pass actually queried.
    shards_routed: int = 0
    #: Shards not queried: in symmetric self-discovery, those holding
    #: nothing at or above the reference's candidate floor (and every
    #: shard for an empty reference, which runs nowhere).
    shards_skipped: int = 0
    #: Shard-summed funnel counters and stage timings.
    merged: PassStats = field(default_factory=PassStats)
    #: (shard index, that shard's PassStats) for every queried shard.
    per_shard: list = field(default_factory=list)

    @classmethod
    def from_shards(
        cls, shards_total: int, per_shard: list
    ) -> "ClusterPassStats":
        """Assemble from the queried shards' (index, PassStats) pairs."""
        return cls(
            shards_total=shards_total,
            shards_routed=len(per_shard),
            shards_skipped=shards_total - len(per_shard),
            merged=merge_pass_stats([stats for _, stats in per_shard]),
            per_shard=per_shard,
        )


@dataclass
class ClusterStats(ServiceStats):
    """Lifetime counters for one :class:`~repro.cluster.SilkMothCluster`.

    Everything a :class:`~repro.service.stats.ServiceStats` tracks,
    plus fan-out and rebalancing activity.  Every int field
    round-trips through :meth:`to_dict` / :meth:`from_dict`.
    """

    #: Sum of shards queried across every fanned-out query.
    shards_routed_total: int = 0
    #: Sum of shards skipped by a discovery floor.
    shards_skipped_total: int = 0
    #: Sets moved between shards by :meth:`SilkMothCluster.compact`.
    rebalance_moves: int = 0
    #: Requests retried on another replica after a replica failure.
    failovers: int = 0
    #: Replicas marked unhealthy and torn down (crash/hang/lost reply).
    replicas_lost: int = 0
    #: Dead replicas rebuilt by :meth:`SilkMothCluster.revive`.
    replicas_revived: int = 0
    #: Operations that hit a shard with zero surviving replicas.
    degraded_failures: int = 0

    def record_routing(self, pass_stats: ClusterPassStats) -> None:
        """Fold one query's fan-out verdict into the lifetime counters."""
        self.shards_routed_total += pass_stats.shards_routed
        self.shards_skipped_total += pass_stats.shards_skipped
        observe_routing(pass_stats)

    @property
    def shard_skip_rate(self) -> float:
        """Fraction of shard fan-outs a discovery floor avoided."""
        considered = self.shards_routed_total + self.shards_skipped_total
        return self.shards_skipped_total / considered if considered else 0.0

    def replication_summary(self) -> dict:
        """Replica-lifecycle counters in the ``silkmoth-health/1`` shape.

        The ``replication`` section of the cluster health rollup; the
        live healthy/total replica counts are coordinator state and are
        merged in by :meth:`SilkMothCluster.health`.
        """
        return {
            "failovers": self.failovers,
            "replicas_lost": self.replicas_lost,
            "replicas_revived": self.replicas_revived,
            "degraded_failures": self.degraded_failures,
        }

    def to_dict(self) -> dict:
        """JSON-serialisable summary (cluster manifests / CLI)."""
        payload = super().to_dict()
        payload["shard_skip_rate"] = round(self.shard_skip_rate, 4)
        return payload
