"""The shard side of the cluster: one command-driven SilkMoth node.

A shard is deliberately *not* a new engine: :class:`ShardHost` wraps a
single-node :class:`repro.service.SilkMothService` (query cache
disabled -- the coordinator caches at cluster level) and exposes the
small command vocabulary the transports speak.  Every shard therefore
inherits the service's exactness-under-mutation story wholesale:
tombstoned local sets, lazy posting deletion, threshold compaction and
per-shard re-planning against the shard's own
:class:`~repro.planner.cost.IndexProfile` (the shard's slice, not the
cluster's).  A worker process does not import the numpy kernels itself
-- the coordinator loaded them with :mod:`repro.backends` before it
forked (see :mod:`repro.cluster.transport`), so constructing a host
costs tokenise + index + plan and nothing else.

Local ids are shard-private and append-only (never reused); the
coordinator owns the global numbering and the mapping between the two.
The host never learns about routing -- summaries are coordinator state
-- except for the ``summary`` command, which inventories the shard's
*live* token hashes so the coordinator can rebuild a tight summary
after compaction.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.routing import token_hash
from repro.core.config import SilkMothConfig
from repro.core.records import SetCollection
from repro.io.wal import reset_wal_directory
from repro.obs.sketch import get_sketch_registry
from repro.obs.trace import collect_remote, span
from repro.service.service import SilkMothService
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
        Per-shard auto-compaction threshold, passed through to the
        underlying service.
    wal_dir:
        This replica's private write-ahead-log directory (``None``
        disables durability; the coordinator resolves
        ``SILKMOTH_WAL_DIR`` and derives one directory per replica).
    recover:
        When True, ignore *raw_sets*/*deleted* and rebuild the service
        from *wal_dir* via :meth:`SilkMothService.recover` (the
        from-disk revive path).  When False and *wal_dir* is given, any
        stale log there is cleared first: the replica is being built
        from authoritative coordinator state and starts a new history.
    """

    def __init__(
        self,
        config: SilkMothConfig,
        raw_sets: Sequence[Sequence[str]] = (),
        deleted: Sequence[int] = (),
        compact_dead_fraction: float = 0.25,
        wal_dir: "str | None" = None,
        recover: bool = False,
    ):
        if recover:
            if wal_dir is None:
                raise ValueError("recover=True requires a wal_dir")
            # cache_capacity=0 here and below: result caching happens
            # once, at the coordinator, keyed by the cluster-wide
            # write generation.
            self.service = SilkMothService.recover(
                wal_dir,
                config,
                cache_capacity=0,
                compact_dead_fraction=compact_dead_fraction,
            )
            return
        collection = SetCollection(
            Tokenizer(kind=config.similarity, q=config.effective_q)
        )
        for elements in raw_sets:
            collection.add_set(elements)
        for local_id in deleted:
            collection.remove_set(local_id)
        if wal_dir is not None:
            reset_wal_directory(wal_dir)
        self.service = SilkMothService(
            config,
            collection,
            cache_capacity=0,
            compact_dead_fraction=compact_dead_fraction,
            # False (not None): a bare host must never pick up
            # SILKMOTH_WAL_DIR itself, or every replica would fight
            # over the same directory -- the coordinator resolves the
            # env var once and derives one directory per replica.
            wal_dir=wal_dir if wal_dir is not None else False,
        )

    def close(self) -> None:
        """Release the service's WAL handle (transport teardown)."""
        self.service.close()

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
        elements: Sequence[str],
        skip_local: int | None,
        first_local: int = 0,
        trace_ctx: "tuple[str, str] | None" = None,
    ):
        """One search pass; returns (results, PassStats, trace spans).

        The reference is tokenised through the non-interning query path
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
        context; when present, the pass is traced here and the new
        spans -- parented under the coordinator's query span -- ride
        back in the reply for the coordinator to ingest, so a cluster
        query yields one cross-process trace tree.
        """
        service = self.service
        with collect_remote(trace_ctx) as spans:
            with span("shard.search", live_sets=service.collection.live_count):
                reference = service.collection.query_set(elements)
                results, stats = service.engine.search_with_stats(
                    reference, skip_set=skip_local, first_set=first_local
                )
        service.stats.record_pass(stats)
        return results, stats, spans

    def _cmd_search_block(
        self,
        items: Sequence[tuple],
        trace_ctx: "tuple[str, str] | None" = None,
    ) -> list:
        """:meth:`_cmd_search` per ``(elements, skip_local, first_local)``."""
        return [self._cmd_search(*item, trace_ctx) for item in items]

    def _cmd_add(self, elements: Sequence[str]) -> int:
        """Append one set; returns its new local id."""
        return self.service.add_set(elements).set_id

    def _cmd_remove(self, local_id: int) -> None:
        """Tombstone one local set."""
        self.service.remove_set(local_id)

    def _cmd_compact(self) -> int:
        """Force a physical compaction; returns postings removed."""
        return self.service.compact()

    def _cmd_checkpoint(self) -> "dict | None":
        """Checkpoint this shard's WAL; returns the new position.

        ``None`` when the shard runs without a WAL -- the coordinator
        records exactly that in the cluster manifest.
        """
        self.service.checkpoint_wal()
        return self.service.wal_position()

    def _cmd_wal(self) -> "dict | None":
        """This shard's current WAL position (``None`` = WAL disabled)."""
        return self.service.wal_position()

    def _cmd_summary(self) -> tuple[list[int], bool]:
        """Inventory the live sets' token hashes (+ empty-element flag).

        Feeds the coordinator's summary rebuild after compaction; texts
        are re-tokenised with the shard's own tokenizer so the
        inventory matches the index exactly.
        """
        collection = self.service.collection
        tokenizer = collection.tokenizer
        hashes: set[int] = set()
        has_empty = False
        for record in collection.iter_live():
            for element in record.elements:
                tokens = tokenizer.index_tokens(element.text)
                if not tokens:
                    has_empty = True
                    continue
                for token in tokens:
                    hashes.add(token_hash(token))
        return sorted(hashes), has_empty

    def _cmd_export(self) -> tuple[list[list[str]], list[int], int]:
        """Raw shard state: (sets in local-id order, tombstones, generation).

        Snapshot writing and rebalancing happen coordinator-side, so
        this is the only bulk read the protocol needs.
        """
        collection = self.service.collection
        sets = [
            [element.text for element in record.elements]
            for record in collection
        ]
        return sets, sorted(collection.deleted_ids), self.service.generation

    def _cmd_info(self) -> dict:
        """Shard descriptor: sizes, generation, planner decision, stats."""
        service = self.service
        decision = service.decision
        payload = {
            "total_sets": len(service.collection),
            "live_sets": service.collection.live_count,
            "tombstones": len(service.collection.deleted_ids),
            "generation": service.generation,
            "decision": decision.to_dict(),
            "stats": service.stats.to_dict(),
        }
        return payload

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
