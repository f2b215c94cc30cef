"""The shard side of the cluster: one command-driven SilkMoth engine.

A shard is deliberately *not* a new engine: :class:`ShardHost` drives a
single :class:`repro.core.engine.SilkMoth` and exposes the small
command vocabulary the transports speak.  The engine owns what a write
does to the shard's collection and index -- tombstoned local sets, lazy
posting deletion, compaction with per-shard re-planning against the
shard's own :class:`~repro.planner.cost.IndexProfile` (the shard's
slice, not the cluster's) -- and the host adds only the threshold that
triggers compaction after a remove.  The cache, the stats, the write
accounting and durability are the coordinator's.  A worker process
does not import the numpy kernels itself -- the coordinator loaded them
with :mod:`repro.backends` before it forked (see
:mod:`repro.cluster.transport`), so constructing a host costs tokenise
+ index + plan and nothing else.

Local ids are shard-private and append-only (never reused); the
coordinator owns the global numbering and the mapping between the two.
Nothing the host holds is read back: the coordinator's
:class:`~repro.cluster.directory.ShardDirectory` already knows every
raw set, placement and tombstone, and builds replicas from that alone.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import SilkMothConfig
from repro.core.engine import SilkMoth, compaction_threshold
from repro.core.records import SetCollection
from repro.obs.sketch import get_sketch_registry
from repro.obs.trace import collect_remote, span
from repro.tokenize.tokenizers import Tokenizer


class ShardHost:
    """Serves one shard's engine behind the cluster command protocol.

    Parameters
    ----------
    config:
        The cluster-wide engine configuration (every shard serves under
        the same one).
    raw_sets:
        Initial raw sets, in local-id order (e.g. from a shard
        snapshot).
    deleted:
        Local ids to tombstone after loading (snapshot tombstones).
    compact_dead_fraction:
        Compact the shard's index after a remove once at least this
        fraction of its postings belongs to tombstoned sets.
    """

    def __init__(
        self,
        config: SilkMothConfig,
        raw_sets: Sequence[Sequence[str]] = (),
        deleted: Sequence[int] = (),
        compact_dead_fraction: float = 0.25,
    ):
        self.compact_dead_fraction = compaction_threshold(
            compact_dead_fraction
        )
        collection = SetCollection(
            Tokenizer(kind=config.similarity, q=config.effective_q)
        )
        for elements in raw_sets:
            collection.add_set(elements)
        for local_id in deleted:
            collection.remove_set(local_id)
        self.engine = SilkMoth(collection, config)

    # ------------------------------------------------------------------
    # Command handlers
    # ------------------------------------------------------------------
    def handle(self, command: str, payload: tuple):
        """Dispatch one protocol command; returns its picklable result."""
        handler = getattr(self, f"_cmd_{command}", None)
        if handler is None:
            raise ValueError(f"unknown shard command {command!r}")
        return handler(*payload)

    def _cmd_ping(self):
        """Liveness probe (transport tests)."""
        return "pong"

    def _cmd_search(
        self,
        items: Sequence[tuple],
        trace_ctx: "tuple[str, str] | None" = None,
    ) -> list:
        """One search pass per ``(elements, skip_local, first_local)``
        item, in order; returns (results, PassStats, trace spans) each.

        A reference is tokenised through the non-interning query path
        -- token ids unknown to this shard resolve to ephemeral
        negative ids that match nothing, which is exactly the semantics
        of "this shard does not contain that token".  *skip_local*
        excludes one local set (the reference itself, in discovery) and
        *first_local* every local id below it: the coordinator's
        translation of a symmetric discovery pass's candidate floor
        into this shard's numbering (0 = no floor).  Both are plain
        local ids, identical on every replica of the shard, so a
        failover retry re-sends the same payload.

        *trace_ctx* is the coordinator's ``(trace_id, span_id)``
        context; when present, each pass is traced here and the new
        spans -- parented under the coordinator's query span -- ride
        back in the reply for the coordinator to ingest, so a cluster
        query yields one cross-process trace tree.
        """
        engine = self.engine
        collection = engine.collection
        replies = []
        for elements, skip_local, first_local in items:
            with collect_remote(trace_ctx) as spans:
                with span("shard.search", live_sets=collection.live_count):
                    reference = collection.query_set(elements)
                    results, stats = engine.search_with_stats(
                        reference, skip_set=skip_local, first_set=first_local
                    )
            stats.signed = None  # the coordinator caches uncertified
            replies.append((results, stats, spans))
        return replies

    def _cmd_add(self, elements: Sequence[str]) -> int:
        """Append one set; returns its new local id."""
        return self.engine.add_set(elements).set_id

    def _cmd_remove(self, local_id: int) -> None:
        """Tombstone one local set, compacting past the threshold."""
        engine = self.engine
        engine.remove_set(local_id)
        if engine.index.dead_fraction >= self.compact_dead_fraction:
            engine.compact()

    def _cmd_compact(self) -> int:
        """Force a physical compaction; returns postings removed."""
        return self.engine.compact()

    def _cmd_info(self) -> dict:
        """Shard descriptor: sizes, planner decision, per-stage seconds."""
        engine = self.engine
        collection = engine.collection
        seconds = sorted(engine.stats.stage_seconds.items())
        return {
            "total_sets": len(collection),
            "live_sets": collection.live_count,
            "tombstones": len(collection.deleted_ids),
            "decision": engine.decision.to_dict(),
            "stats": {"stage_seconds": dict(seconds)},
        }

    def _cmd_sketches(self) -> dict:
        """This process's quantile-sketch registry as a payload.

        The payload is pid-tagged: under the inline transport every
        shard shares the coordinator's process-global registry, and the
        coordinator's merge deduplicates by pid so those recordings are
        counted exactly once.  Worker processes (process/socket
        transports) each report their own registry.
        """
        return get_sketch_registry().to_payload()

    def _cmd_close(self) -> None:
        """Protocol no-op: transports intercept close before dispatch."""
        return None
