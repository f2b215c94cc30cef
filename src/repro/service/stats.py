"""Service-level observability, layered on :mod:`repro.core.stats`.

:class:`repro.core.stats.RunStats` counts what the *pipeline* did
(candidates per funnel stage, one :class:`PassStats` per executed pass).
:class:`ServiceStats` counts what the *service* did around it: queries
served, cache hits and misses, stale answers refreshed, uncertified
answers dropped by writes, mutations, compactions, and lifetime query
wall-clock seconds.
A cache hit increments ``queries`` and ``cache_hits`` but adds nothing
to the engine's ``RunStats`` -- which is exactly how tests assert that
hot references skip the signature/filter/verify pipeline entirely.
Per-query latency distributions live in the
``silkmoth_query_latency_quantile`` sketch (:mod:`repro.obs.instrument`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.core.stats import PassStats
from repro.obs.instrument import observe_query


def _counter_names(stats) -> list:
    """The int fields of a stats dataclass, in declaration order."""
    return [f.name for f in fields(stats) if type(f.default) is int]


@dataclass
class ServiceStats:
    """Lifetime counters for one :class:`repro.service.SilkMothService`.

    Every int field is a counter that round-trips through
    :meth:`to_dict` / :meth:`from_dict` (snapshot metadata).
    """

    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    batches: int = 0
    batch_queries_deduplicated: int = 0
    adds: int = 0
    removes: int = 0
    updates: int = 0
    compactions: int = 0
    #: Uncertified cached answers adds dropped (every other answer is
    #: kept across writes, :mod:`repro.service.cache`).
    invalidated_uncertified: int = 0
    #: Cache hits on a stale answer, each completed by one pass over
    #: the sets added since it was cached.
    cache_refreshes: int = 0
    snapshots_saved: int = 0
    #: Element-pair similarity memo lookups served / missed across the
    #: cold queries this service ran (edit kinds; see
    #: :mod:`repro.sim.memo`).
    sim_cache_hits: int = 0
    sim_cache_misses: int = 0
    #: Lifetime sum of per-query wall-clock seconds (hits and misses).
    query_seconds_total: float = 0.0
    #: Per-stage pipeline seconds accumulated across cold passes
    #: (keys as in :attr:`repro.core.stats.PassStats.stage_seconds`).
    stage_seconds: dict = field(default_factory=dict)

    @property
    def mutations(self) -> int:
        """Total mutation count (adds + removes + updates)."""
        return self.adds + self.removes + self.updates

    @property
    def invalidations(self) -> int:
        """Cached answers dropped by writes: the uncertified ones."""
        return self.invalidated_uncertified

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of queries served from the cache."""
        return self.cache_hits / self.queries if self.queries else 0.0

    @property
    def sim_cache_hit_rate(self) -> float:
        """Fraction of pair-similarity lookups served from the memo."""
        lookups = self.sim_cache_hits + self.sim_cache_misses
        return self.sim_cache_hits / lookups if lookups else 0.0

    @property
    def mean_query_seconds(self) -> float:
        """Mean per-query latency over the service lifetime."""
        return self.query_seconds_total / self.queries if self.queries else 0.0

    def record_query(self, latency: float, cache_hit: bool) -> None:
        """Fold one served query into the counters."""
        self.queries += 1
        if cache_hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        self.query_seconds_total += latency
        observe_query(latency, cache_hit)

    def record_pass(self, pass_stats: PassStats) -> None:
        """Fold one cold pipeline pass's :class:`PassStats` in.

        Accumulates the similarity-memo counters and the per-stage wall
        clock.
        """
        self.sim_cache_hits += pass_stats.sim_cache_hits
        self.sim_cache_misses += pass_stats.sim_cache_misses
        for name, seconds in pass_stats.stage_seconds.items():
            self.stage_seconds[name] = (
                self.stage_seconds.get(name, 0.0) + seconds
            )

    def cache_summary(self) -> dict:
        """Cache and traffic counters in the ``silkmoth-health/1`` shape.

        The ``cache`` section of :meth:`repro.service.SilkMothService.health`
        and the cluster rollup both read from here, so the two documents
        stay field-compatible.
        """
        return {
            "queries": self.queries,
            "hit_rate": round(self.cache_hit_rate, 4),
            "sim_hit_rate": round(self.sim_cache_hit_rate, 4),
            "invalidated_uncertified": self.invalidated_uncertified,
            "cache_refreshes": self.cache_refreshes,
        }

    def to_dict(self) -> dict:
        """JSON-serialisable summary (service snapshot metadata / CLI)."""
        payload = {name: getattr(self, name) for name in _counter_names(self)}
        payload["cache_hit_rate"] = round(self.cache_hit_rate, 4)
        payload["sim_cache_hit_rate"] = round(self.sim_cache_hit_rate, 4)
        payload["mutations"] = self.mutations
        payload["invalidations"] = self.invalidations
        payload["query_seconds_total"] = self.query_seconds_total
        payload["mean_query_seconds"] = self.mean_query_seconds
        payload["stage_seconds"] = {
            name: seconds for name, seconds in sorted(self.stage_seconds.items())
        }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceStats":
        """Rebuild lifetime counters from :meth:`to_dict` output.

        The lifetime totals and means survive; derived rates are
        recomputed.  Keys this version does not know --
        ``backend_seconds`` in payloads written before the compute
        backends became one, and ``invalidated_token_hit`` /
        ``invalidated_member`` from the days writes dropped those
        answers -- are ignored, and so is ``invalidations``, which is
        derived (and once counted writes, not dropped answers).
        """
        stats = cls()
        for name in _counter_names(stats):
            value = payload.get(name, 0)
            if isinstance(value, int) and not isinstance(value, bool):
                setattr(stats, name, value)
        total = payload.get("query_seconds_total", 0.0)
        if isinstance(total, (int, float)) and not isinstance(total, bool):
            stats.query_seconds_total = float(total)
        stage = payload.get("stage_seconds")
        if isinstance(stage, dict):
            stats.stage_seconds = {
                str(name): float(seconds)
                for name, seconds in stage.items()
                if isinstance(seconds, (int, float))
                and not isinstance(seconds, bool)
            }
        return stats
