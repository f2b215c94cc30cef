"""`SilkMothService`: the engine wrapped as a long-lived, mutable server.

The batch library builds an index once and answers queries by running
the full signature/filter/verify pipeline.  The service keeps that
engine resident and adds what online serving needs:

* **mutations** -- ``add_set``, ``remove_set`` and ``update_set``
  (written once, on :class:`~repro.service.batch.QueryFront`), backed
  by tombstones in the collection and lazy posting deletion in the
  index, with a threshold-triggered :meth:`compact`;
* **caching** -- an LRU keyed by (reference fingerprint, config
  fingerprint) whose answers are maintained across writes: a remove
  deletes the set's row from the answers holding it, an add marks
  stale the answers whose signature it shares a token with, and a hit
  on a stale answer completes it with one pass over the sets added
  since (:mod:`repro.service.cache`), so hot references skip most of
  the pipeline;
* **batching** -- :meth:`search_many` deduplicates a batch, serves
  hits from the cache, and fans the cold remainder out across a
  process pool;
* **snapshots** -- :meth:`save` / :meth:`load` round-trip the live-set
  membership and service metadata through the version-2 snapshot
  format;
* **durability** -- opt-in write-ahead logging (``wal_dir=`` /
  ``SILKMOTH_WAL_DIR``): every mutation is appended to a
  :class:`repro.io.wal.WriteAheadLog` *before* it is applied, and
  :meth:`recover` rebuilds a crashed service from the last checkpoint
  plus the log tail (see :mod:`repro.io.wal` for the format and the
  torn-tail rule);
* **observability** -- :attr:`stats` counts queries, hit rate,
  mutations, compactions and per-query latency.

Every answer remains exact: the engine skips tombstoned sets at
candidate selection, so results always equal brute force over the
logically live sets.

**Threads.** A service is not safe for concurrent calls: serialise
them.  Every mutation writes, and so does :meth:`search` -- a hit on
a stale answer runs a pass and rewrites the cache entry.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Sequence

from repro.core.config import SilkMothConfig
from repro.core.engine import SearchResult, SilkMoth, compaction_threshold
from repro.core.parallel import run_pool
from repro.core.records import SetCollection, SetRecord
from repro.io.persistence import load_service_snapshot, save_service_snapshot
from repro.io.wal import (
    RecoveryReport,
    WalError,
    WriteAheadLog,
    recover_state,
    wal_directory_in_use,
)
from repro.obs.diag import get_slowlog, slowlog_ms
from repro.obs.instrument import observe_mutation, observe_wal_recovery
from repro.obs.sketch import quantile_summary
from repro.obs.trace import span
from repro.pipeline.driver import search_passes
from repro.service.batch import QueryFront
from repro.service.cache import LRUQueryCache, config_fingerprint, write_keys
from repro.service.stats import ServiceStats
from repro.settings import resolve
from repro.signatures.base import SignedReference
from repro.tokenize.tokenizers import Tokenizer


class SilkMothService(QueryFront):
    """A query-serving, mutable wrapper around one SilkMoth engine.

    Parameters
    ----------
    config:
        Engine configuration; fixed for the service's lifetime (results
        cached under its fingerprint).
    collection:
        Initial searched collection S (may carry tombstones, e.g. from
        a snapshot).  ``None`` starts empty.
    cache_capacity:
        Maximum cached queries (0 disables caching).
    compact_dead_fraction:
        Compact the inverted index whenever at least this fraction of
        its postings belongs to tombstoned sets.
    wal_dir:
        Directory for the write-ahead log (``None`` reads
        ``SILKMOTH_WAL_DIR``; unset disables durability; ``False``
        disables it explicitly, ignoring the environment).  Must be
        empty or brand new -- adopting an existing log is
        :meth:`recover`'s job.
    wal_fsync / wal_segment_bytes:
        WAL fsync policy and segment rotation threshold (``None``
        reads ``SILKMOTH_FSYNC`` / ``SILKMOTH_WAL_SEGMENT_BYTES``).
    """

    def __init__(
        self,
        config: SilkMothConfig,
        collection: SetCollection | None = None,
        *,
        cache_capacity: int = 1024,
        compact_dead_fraction: float = 0.25,
        wal_dir: str | Path | bool | None = None,
        wal_fsync: bool | None = None,
        wal_segment_bytes: int | None = None,
    ):
        self.compact_dead_fraction = compaction_threshold(
            compact_dead_fraction
        )
        if collection is None:
            collection = SetCollection(
                Tokenizer(kind=config.similarity, q=config.effective_q)
            )
        self.engine = SilkMoth(collection, config)
        self.cache = LRUQueryCache(cache_capacity)
        self.stats = ServiceStats()
        #: Bumped by every write: the WAL sequence.
        self.generation = 0
        self._config_fp = config_fingerprint(config)
        #: The attached write-ahead log (None = durability disabled).
        self.wal: WriteAheadLog | None = None
        #: What :meth:`recover` found, for the service it rebuilt.
        self.wal_recovery: RecoveryReport | None = None
        self._wal_replaying = False
        wal_dir = resolve("SILKMOTH_WAL_DIR", wal_dir)
        if wal_dir is not None:
            self._attach_wal(
                wal_dir, wal_fsync, wal_segment_bytes, fresh=True
            )

    # -- convenience views ----------------------------------------------
    @property
    def config(self) -> SilkMothConfig:
        """The engine configuration this service serves under."""
        return self.engine.config

    @property
    def collection(self) -> SetCollection:
        """The served collection (live sets plus tombstones)."""
        return self.engine.collection

    @property
    def index(self):
        """The engine's inverted index."""
        return self.engine.index

    def live_set_ids(self) -> list[int]:
        """Ids of the logically live sets, ascending."""
        return [record.set_id for record in self.collection.iter_live()]

    def __len__(self) -> int:
        """Number of live sets being served."""
        return self.collection.live_count

    # -- writes (add_set / remove_set / update_set: QueryFront) ---------
    def is_live(self, set_id: int) -> bool:
        """Whether *set_id* addresses a live set."""
        return self.collection.is_live(set_id)

    def _log(self, op: str, args: dict) -> None:
        """Append one record, seq = the generation once the write lands,
        so replay knows which records a checkpoint covers.  No-op
        without a WAL and while replaying (those records are on disk)."""
        if self.wal is not None and not self._wal_replaying:
            self.wal.append(op, args, seq=self.generation + 1)

    def _add(self, elements: list[str]) -> tuple:
        vocabulary = self.collection.vocabulary
        known = len(vocabulary)
        record = self.engine.add_set(elements)
        return record, write_keys(record, len(vocabulary) > known)

    def _remove(self, set_id: int) -> SetRecord:
        return self.engine.remove_set(set_id)

    def _maintain(self) -> None:
        """Compact once enough of the index is dead postings."""
        if self.index.dead_fraction >= self.compact_dead_fraction:
            self.compact()

    def compact(self) -> int:
        """Drop tombstoned postings from the index now; returns how many.

        The engine re-plans (:meth:`repro.core.engine.SilkMoth.compact`);
        the WAL is checkpointed, its natural truncation point.
        """
        removed = self.engine.compact()
        if removed:
            self.stats.compactions += 1
            observe_mutation("compact")
        if not self._wal_replaying:
            self.checkpoint_wal()
        return removed

    # -- planning -------------------------------------------------------
    @property
    def decision(self):
        """The engine's current :class:`~repro.planner.PlannerDecision`."""
        return self.engine.decision

    def plan_report(self) -> str:
        """Human-readable planner report for the serving configuration."""
        return self.engine.plan_report()

    # -- queries (search / search_many: QueryFront) ---------------------
    def _block_size(self, processes: int | None) -> int | None:
        """Serially each reference is its own block (its own latency);
        the process pool takes the whole cold remainder at once."""
        return None if processes is not None and processes > 1 else 1

    def _next_set_id(self) -> int:
        return len(self.collection)

    def _run_cold(
        self,
        references: Sequence[Sequence[str] | SignedReference],
        processes: int | None,
        floor: int = 0,
    ) -> list[tuple[list[SearchResult], SignedReference | None]]:
        """One search pass per reference over the sets with id >=
        *floor*: the engine runner in-process, or the pool runner over
        the live sets.

        Either way each pass's :class:`~repro.core.stats.PassStats` is
        folded into :attr:`stats` and the engine's run stats, the
        latter by the engine itself in-process and here for a pass a
        pool worker ran (an empty reference runs no pass).  Only an
        in-process pass signs in this collection's vocabulary, so only
        its answer comes back with its signed reference.
        """
        passes = search_passes(len(references), floor)
        if processes is not None and processes > 1:
            # The workers rebuild the collection from its live raw sets,
            # so their set ids are positions in the live-id table.
            live = list(self.collection.iter_live())
            answered = run_pool(
                passes,
                [[element.text for element in record.elements] for record in live],
                self.config,
                references,
                processes,
                table=[record.set_id for record in live],
            )
            for elements, (_, pass_stats) in zip(references, answered):
                if len(elements):
                    self.engine.stats.add(pass_stats)
        else:
            answered = self.engine.run_passes(
                passes, [self._pass_input(r) for r in references]
            )
        cold = []
        for results, pass_stats in answered:
            self.stats.record_pass(pass_stats)
            cold.append((results, pass_stats.signed))
            pass_stats.signed = None  # the engine's run stats keep the pass
        return cold

    def _pass_input(self, reference) -> SetRecord | SignedReference:
        """A refresh's signed reference while it is current, else the
        record of the texts from the non-interning query path (a
        long-lived service must not grow its vocabulary per query)."""
        if isinstance(reference, SignedReference):
            if reference.current(self.collection.vocabulary):
                return reference
            reference = [element.text for element in reference.record]
        return self.collection.query_set(reference)

    # -- snapshots ------------------------------------------------------
    def _snapshot_metadata(self) -> dict:
        """The service metadata every snapshot/checkpoint carries."""
        return {
            "generation": self.generation,
            "config_fingerprint": self._config_fp,
            "stats": self.stats.to_dict(),
            "planner": self.engine.decision.to_dict(),
        }

    def _restore_metadata(self, metadata: dict) -> None:
        """Adopt a snapshot's generation and (fingerprint-gated) stats."""
        self.generation = int(metadata.get("generation", 0))
        saved_stats = metadata.get("stats")
        saved_fp = metadata.get("config_fingerprint")
        if isinstance(saved_stats, dict) and saved_fp == self._config_fp:
            # Only adopt lifetime counters recorded under the *same*
            # config: a different delta/metric/scheme would silently mix
            # unrelated traffic into hit rates and latency means.
            self.stats = ServiceStats.from_dict(saved_stats)

    def save(self, path: str | Path) -> None:
        """Write a version-2 service snapshot (sets + tombstones + meta).

        With a WAL attached, saving is also a checkpoint: the log is
        truncated because the snapshot now carries everything it held.
        """
        save_service_snapshot(path, self.collection, self._snapshot_metadata())
        self.stats.snapshots_saved += 1
        self.checkpoint_wal()

    @classmethod
    def load(
        cls,
        path: str | Path,
        config: SilkMothConfig,
        *,
        cache_capacity: int = 1024,
        compact_dead_fraction: float = 0.25,
        wal_dir: str | Path | None = None,
        wal_fsync: bool | None = None,
        wal_segment_bytes: int | None = None,
    ) -> "SilkMothService":
        """Rebuild a service from a snapshot written by :meth:`save`.

        Tokenizer settings are validated against *config* so a snapshot
        cannot silently serve under the wrong similarity function.
        Lifetime counters are restored only when the snapshot was
        written under the same config fingerprint; otherwise they start
        fresh (the write generation is restored either way).  A
        *wal_dir* (or ``SILKMOTH_WAL_DIR``) attaches a **fresh** WAL to
        the loaded service; use :meth:`recover` to resume an existing
        log instead.
        """
        collection, metadata = load_service_snapshot(
            path,
            expected_kind=config.similarity,
            expected_q=config.effective_q,
        )
        service = cls(
            config,
            collection,
            cache_capacity=cache_capacity,
            compact_dead_fraction=compact_dead_fraction,
            wal_dir=False,
        )
        service._restore_metadata(metadata)
        wal_dir = resolve("SILKMOTH_WAL_DIR", wal_dir)
        if wal_dir is not None:
            # Attach only after the generation is restored, so the base
            # checkpoint and subsequent record seqs line up.
            service._attach_wal(
                wal_dir, wal_fsync, wal_segment_bytes, fresh=True
            )
        return service

    # -- durability -----------------------------------------------------
    def _attach_wal(
        self,
        wal_dir: str | Path,
        fsync: bool | None,
        segment_bytes: int | None,
        *,
        fresh: bool,
    ) -> None:
        """Open the WAL; *fresh* demands an unused directory.

        A fresh attach writes the base-state checkpoint immediately, so
        a WAL directory is always self-contained: recovery never needs
        state from anywhere else.
        """
        if fresh and wal_directory_in_use(wal_dir):
            raise WalError(
                f"{wal_dir}: WAL directory already holds a log; use "
                f"SilkMothService.recover() to resume it (or clear it)"
            )
        self.wal = WriteAheadLog(
            wal_dir, segment_bytes=segment_bytes, fsync=fsync
        )
        if fresh:
            self.checkpoint_wal()

    def checkpoint_wal(self) -> None:
        """Checkpoint the WAL now: snapshot the state, truncate the log.

        No-op without a WAL.  Called automatically by :meth:`compact`,
        :meth:`save`, and at the end of :meth:`recover`.
        """
        if self.wal is None:
            return
        self.wal.checkpoint(
            lambda path: save_service_snapshot(
                path, self.collection, self._snapshot_metadata()
            )
        )

    def wal_position(self) -> dict | None:
        """The WAL's current position, or ``None`` when disabled."""
        return None if self.wal is None else self.wal.position()

    def close(self) -> None:
        """Release the WAL file handle (no-op without a WAL)."""
        if self.wal is not None:
            self.wal.close()

    def health(self) -> dict:
        """One service health rollup (``silkmoth-health/1``).

        Latency quantiles come from this process's sketch registry,
        cache hit rates from :meth:`ServiceStats.cache_summary`, plus
        the WAL position and the slowlog state -- the document shape
        :meth:`repro.cluster.SilkMothCluster.health` produces
        cluster-wide (less the ``wal`` section a cluster has no use
        for), rendered by ``silkmoth health``.
        """
        position = self.wal_position()
        slowlog = get_slowlog()
        return {
            "schema": "silkmoth-health/1",
            "kind": "service",
            "status": "ok",
            "generation": self.generation,
            "live_sets": self.collection.live_count,
            "cache": self.stats.cache_summary(),
            "latency": quantile_summary(),
            "wal": {
                "enabled": position is not None,
                "positions_known": 1 if position is not None else 0,
                "position": position,
            },
            "slowlog": {
                "captured": len(slowlog),
                "threshold_ms": slowlog_ms(),
            },
        }

    def state_fingerprint(self) -> str:
        """Digest of the logical state: sets, tombstones, generation.

        Two services with equal fingerprints hold bit-identical served
        state -- the crash sweep's "pre- or post-mutation oracle, never
        a third state" assertions compare exactly this.
        """
        body = {
            "sets": [
                [element.text for element in record.elements]
                for record in self.collection
            ],
            "deleted": sorted(self.collection.deleted_ids),
            "generation": self.generation,
        }
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(
            canonical.encode("utf-8"), digest_size=16
        ).hexdigest()

    @classmethod
    def recover(
        cls,
        wal_dir: str | Path,
        config: SilkMothConfig,
        *,
        cache_capacity: int = 1024,
        compact_dead_fraction: float = 0.25,
        wal_fsync: bool | None = None,
        wal_segment_bytes: int | None = None,
        checkpoint: bool = True,
    ) -> "SilkMothService":
        """Rebuild a service from its WAL directory after a crash.

        Loads the checkpoint snapshot, replays every log record beyond
        the checkpoint's generation through the normal mutation
        methods (records at or below it are skipped -- that is what
        makes recovering twice a no-op), tolerates one torn trailing
        record, then re-attaches the log and (by default) checkpoints
        so the recovered state is durable in one file again.  The
        outcome is summarised in :attr:`wal_recovery`.
        """
        with span("wal.recover", dir=str(wal_dir)) as recover_span:
            collection, metadata, replay, report = recover_state(
                wal_dir,
                expected_kind=config.similarity,
                expected_q=config.effective_q,
            )
            service = cls(
                config,
                collection,
                cache_capacity=cache_capacity,
                compact_dead_fraction=compact_dead_fraction,
                wal_dir=False,
            )
            service._restore_metadata(metadata)
            service._wal_replaying = True
            try:
                for record in replay:
                    # add_set / remove_set / update_set (decode_record
                    # admits no other op).
                    getattr(service, f"{record.op}_set")(**record.args)
            finally:
                service._wal_replaying = False
            expected = report.checkpoint_generation + report.replayed
            if service.generation != expected:  # pragma: no cover - invariant
                raise WalError(
                    f"{wal_dir}: replay ended at generation "
                    f"{service.generation}, expected {expected}"
                )
            service._attach_wal(
                wal_dir, wal_fsync, wal_segment_bytes, fresh=False
            )
            if checkpoint:
                service.checkpoint_wal()
            service.wal_recovery = report
            recover_span.set_attr("replayed", report.replayed)
            recover_span.set_attr("torn_tail", report.torn_tail is not None)
        observe_wal_recovery(report.replayed, report.torn_tail is not None)
        return service
