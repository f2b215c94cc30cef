"""Per-pass and aggregate pipeline statistics.

The evaluation reasons about candidate counts at each pipeline stage
(signature probe, check filter, NN filter, verification), so the engine
records them for every search pass and aggregates across a discovery
run; each pass also carries its wall-clock seconds per stage.

:data:`PASS_COUNTERS` declares which ``PassStats`` fields add up across
passes and shards; :func:`fold` is the one sum every aggregate
(``RunStats``, the cluster merge, a runner's block of passes in the
metrics bridge) is built from, and the slowlog reads the same tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: How many recent passes :attr:`RunStats.per_pass` keeps.  The totals
#: count every pass, so a long-lived service or cluster keeps the
#: window small no matter how much traffic it serves.
PER_PASS_WINDOW = 1024


@dataclass
class PassStats:
    """Funnel counters for one search pass (one reference set)."""

    signature_tokens: int = 0
    full_scan: bool = False
    initial_candidates: int = 0
    after_check: int = 0
    after_nn: int = 0
    verified: int = 0
    #: Related sets the pass found.  A symmetric self-discovery pass
    #: probes only the sets after its reference, so over a run these
    #: add up to exactly the reported pairs.
    matches: int = 0
    #: Signature scheme the plan resolved to ("" before execution).
    scheme: str = ""
    #: Non-empty when the query planner routed this pass through the
    #: exact full-scan fallback (invalid signature parameters); a plain
    #: scheme-returned-None full scan leaves this "".
    fallback_reason: str = ""
    #: Element-pair similarity memo lookups this pass served from /
    #: missed in the cross-stage cache (:mod:`repro.sim.memo`); both
    #: stay 0 when the memo is disabled or the kind is token-based.
    sim_cache_hits: int = 0
    sim_cache_misses: int = 0
    #: Select-funnel counters reported by the packed selection kernel
    #: (:mod:`repro.filters.check`): what it read, scored and dropped
    #: by size.  Edit kinds count per posting key -- keys scanned
    #: across all probes, distinct (set, element) pairs after the merge
    #: dedup, distinct pairs the size gate alone dropped.  Token kinds
    #: probe distinct contents -- content-list entries read, distinct
    #: (reference element, content) pairs scored, candidate *sets* the
    #: size window dropped in the pass.  The empty-element phase adds
    #: per posting key on both.  Scanned / distinct is the dedup
    #: ratio; all stay 0 on full-scan passes (docs/observability.md, "The select-funnel counters").
    select_postings_scanned: int = 0
    select_distinct_pairs: int = 0
    select_size_gate_drops: int = 0
    #: Wall-clock seconds per stage, keyed by stage name
    #: ("signature", "select", "check", "nn", "verify").
    stage_seconds: dict = field(default_factory=dict)
    #: A query reference's signed reference, the result cache's
    #: certificate and refresh input (:mod:`repro.service.cache`).  Its
    #: token ids mean something only to the collection that signed, so
    #: it is never folded, exported or pickled, and the pass's caller
    #: takes it off before a :attr:`RunStats.per_pass` window keeps it.
    signed: object = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("signed", None)
        return state


#: The additive ``PassStats`` counters, in funnel order: each one sums
#: across passes and shards.  ``full_scan``, ``scheme`` and
#: ``fallback_reason`` do not; each aggregate states its own rule.
PASS_COUNTERS = (
    "signature_tokens",
    "initial_candidates",
    "after_check",
    "after_nn",
    "verified",
    "matches",
    "sim_cache_hits",
    "sim_cache_misses",
    "select_postings_scanned",
    "select_distinct_pairs",
    "select_size_gate_drops",
)


def fold(into, *passes: PassStats) -> None:
    """Add the passes' :data:`PASS_COUNTERS` and stage seconds to *into*.

    *into* is a :class:`RunStats`, or a :class:`PassStats` summing
    shard passes or a runner's block.
    """
    totals = into.stage_seconds
    for stats in passes:
        for name in PASS_COUNTERS:
            setattr(into, name, getattr(into, name) + getattr(stats, name))
        for name, seconds in stats.stage_seconds.items():
            totals[name] = totals.get(name, 0.0) + seconds


@dataclass
class RunStats:
    """Aggregated funnel counters across search passes."""

    passes: int = 0
    signature_tokens: int = 0
    full_scans: int = 0
    #: How many of the full scans were planner fallbacks (invalid
    #: signature parameters) rather than empty-scheme degradations.
    planner_fallbacks: int = 0
    initial_candidates: int = 0
    after_check: int = 0
    after_nn: int = 0
    verified: int = 0
    matches: int = 0
    sim_cache_hits: int = 0
    sim_cache_misses: int = 0
    select_postings_scanned: int = 0
    select_distinct_pairs: int = 0
    select_size_gate_drops: int = 0
    stage_seconds: dict = field(default_factory=dict)
    #: The most recent :data:`PER_PASS_WINDOW` passes, oldest first.
    per_pass: list = field(default_factory=list, repr=False)

    def add(self, stats: PassStats, block: tuple[PassStats, ...] = ()) -> None:
        """Fold one pass, or a runner's *block* whose fold is *stats*."""
        block = block or (stats,)
        self.passes += len(block)
        for one in block:
            self.full_scans += one.full_scan
            self.planner_fallbacks += bool(one.fallback_reason)
        fold(self, stats)
        self.per_pass.extend(block)
        del self.per_pass[:-PER_PASS_WINDOW]
