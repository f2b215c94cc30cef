"""The front both servers share: the result cache and the write path.

(Not to be confused with :mod:`repro.planner`, which decides *how* a
single pass runs; this module decides *which* references need a pass
at all.)

:class:`QueryFront` is what :class:`repro.service.SilkMothService` and
:class:`repro.cluster.SilkMothCluster` share: the cache key, the
cache probe, intra-batch deduplication, the
:class:`~repro.service.stats.ServiceStats` accounting, and
``add_set`` / ``remove_set`` / ``update_set`` (check, log, apply,
account, maintain: docs/architecture.md, "The write path").  Every
write is accounted by :meth:`QueryFront._written`, whose cache rule is
that a remove edits the answers holding the set, an add marks the
certified answers it hits stale and drops the uncertified ones
(:mod:`repro.service.cache`).  A hit on a stale answer completes it
with one pass floored at its watermark -- the sets added since it was
cached -- run on the entry's signed reference, so it neither tokenises
nor signs -- and takes that pass's certificate.  A batch's duplicates
collapse onto one computation, references whose answer is cached come
from the cache, and the cold remainder goes to the subclass's *cold
runner* in blocks, each reference charged an equal share of its
block's wall clock.  The cold runner is one of the pass runners of
:mod:`repro.pipeline.driver`: the service's is the engine runner, one
reference per block (or, for ``processes > 1``, the pool runner over
the whole remainder); the cluster's sends blocks of
:data:`repro.cluster.coordinator.PASS_BLOCK` references to its shards.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from repro.core.engine import SearchResult
from repro.obs.instrument import (
    observe_cache_refresh,
    observe_invalidations,
    observe_mutation,
)
from repro.obs.trace import span
from repro.service.cache import certificate, reference_fingerprint
from repro.signatures.base import SignedReference


class QueryFront:
    """``search`` / ``search_many`` over a maintained result cache, and
    the one write path.

    A subclass provides ``cache``, ``generation`` (bumped by every
    write), ``stats``, ``_config_fp``, the cold-runner hooks
    (:meth:`_block_size`, :meth:`_run_cold`, :meth:`_next_set_id`),
    :meth:`is_live` and the apply hooks :meth:`_add` and
    :meth:`_remove`; :meth:`_log` and :meth:`_maintain` are no-ops
    unless it overrides them.
    """

    def is_live(self, set_id: int) -> bool:
        """Whether *set_id* addresses a live set."""
        raise NotImplementedError

    def _add(self, elements: list[str]) -> tuple:
        """Append one set: ``(what add_set returns, its certificate
        keys)`` -- ``()`` when every answer is uncertified."""
        raise NotImplementedError

    def _remove(self, set_id: int):
        """Tombstone live *set_id*; returns what remove_set returns."""
        raise NotImplementedError

    def _log(self, op: str, args: dict) -> None:
        """Make one checked write durable before it is applied."""

    def _maintain(self) -> None:
        """Upkeep after a write that tombstoned a set."""

    def _check_live(self, set_id: int) -> None:
        """:class:`KeyError` unless *set_id* is live -- before any change."""
        if not self.is_live(set_id):
            raise KeyError(f"set_id {set_id!r} is not a live set")

    def add_set(self, elements: Sequence[str]):
        """Append one set; it is searchable immediately.

        Elements are stored as their ``str``.  Returns the node's
        handle on the new set (the service's record, the cluster's
        global id).
        """
        elements = [str(element) for element in elements]
        self._log("add", {"elements": elements})
        result, keys = self._add(elements)
        self._written("add", added=keys)
        return result

    def remove_set(self, set_id: int):
        """Tombstone one live set; it stops matching immediately."""
        self._check_live(set_id)
        self._log("remove", {"set_id": int(set_id)})
        result = self._remove(set_id)
        self._written("remove", removed=set_id)
        self._maintain()
        return result

    def update_set(self, set_id: int, elements: Sequence[str]):
        """Replace one live set's contents; returns the new set's handle.

        Tombstone plus append, so the old id is never reused.  If the
        remove applied but the append then failed, the write commits as
        a remove and the error propagates: the tombstone did land.
        """
        self._check_live(set_id)
        elements = [str(element) for element in elements]
        self._log("update", {"set_id": int(set_id), "elements": elements})
        self._remove(set_id)
        try:
            result, keys = self._add(elements)
        except Exception:
            self._written("remove", removed=set_id)
            raise
        self._written("update", removed=set_id, added=keys)
        self._maintain()
        return result

    def _block_size(self, processes: int | None) -> int | None:
        """Cold references per :meth:`_run_cold` call (``None`` = all)."""
        raise NotImplementedError

    def _run_cold(
        self,
        references: Sequence[Sequence[str] | SignedReference],
        processes: int | None,
        floor: int = 0,
    ) -> list[tuple[list[SearchResult], SignedReference | None]]:
        """Uncached passes over the sets with id >= *floor*: one
        ``(results, signed reference)`` per reference, in order
        (``None`` = uncertified).  A reference is raw elements, or the
        signed reference of a stale entry's refresh."""
        raise NotImplementedError

    def _next_set_id(self) -> int:
        """The id the next added set gets (ids are never reused)."""
        raise NotImplementedError

    def _cache_put(self, key, results, signed) -> tuple:
        """Cache one answer, current to now; returns its rows."""
        return self.cache.put(
            key, results, certificate(signed), self._next_set_id(), signed
        ).answer

    def _current(self, key, entry) -> tuple:
        """A cached entry's rows, completing a stale one first: one pass
        on its signed reference, floored at its watermark, finds the
        sets added since, their rows are appended (ids ascend) and the
        entry takes that pass's signed reference -- a new one when an
        add has made one of the record's ephemeral tokens real."""
        if not entry.stale:
            return entry.answer
        floor = entry.watermark
        ((results, signed),) = self._run_cold([entry.signed], None, floor)
        self.stats.cache_refreshes += 1
        observe_cache_refresh()
        return self._cache_put(
            key,
            entry.answer + tuple(r for r in results if r.set_id >= floor),
            signed,
        )

    def _written(
        self,
        kind: str,
        removed: int | None = None,
        added: Iterable | None = None,
    ) -> None:
        """Account one write of *kind*: its stats counter and
        ``silkmoth_mutations_total`` series, the generation, then the
        cached answers brought up to date with it.

        *removed* is the id of a set the write tombstoned: the answers
        holding it lose its row.  *added* are the certificate keys of
        a set it appended (:func:`repro.service.cache.write_keys`; a
        server whose entries are all uncertified passes none): every
        uncertified answer is dropped and every answer whose
        certificate they hit goes stale.  An update passes both.
        """
        counter = f"{kind}s"
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        observe_mutation(kind)
        self.generation += 1
        if removed is not None:
            self.cache.removed(removed)
        if added is not None:
            dropped = self.cache.added(added)
            self.stats.invalidated_uncertified += dropped
            observe_invalidations("uncertified", dropped)

    def search(self, elements: Sequence[str]) -> list[SearchResult]:
        """All live sets related to the raw reference *elements*.

        Served from the cache when this reference (under this config)
        was answered before -- completed first by a pass over the sets
        added since, when an add may have extended it; otherwise one
        pass runs and the answer is cached.  Set ids are the server's
        own.
        """
        with span("service.query") as query_span:
            key = (reference_fingerprint(elements), self._config_fp)
            started = time.perf_counter()
            with span("cache.probe"):
                entry = self.cache.get(key)
            if entry is not None:
                query_span.set_attr("cache", "hit")
                if entry.stale:
                    query_span.set_attr("refreshed", True)
                answer = self._current(key, entry)
                self.stats.record_query(time.perf_counter() - started, True)
                return list(answer)
            query_span.set_attr("cache", "miss")
            ((results, signed),) = self._run_cold([elements], None)
            self._cache_put(key, results, signed)
            self.stats.record_query(time.perf_counter() - started, False)
            return results

    def search_many(
        self,
        references: Sequence[Sequence[str]],
        processes: int | None = None,
    ) -> list[list[SearchResult]]:
        """Answer a batch of references; one result list per input.

        Exact duplicates within the batch are computed once; references
        whose answer is cached are served from it (a stale one
        completed as in :meth:`search`); the
        cold remainder runs in blocks through the cold runner.
        *processes* > 1 fans a single node's cold references out
        across a process pool; a cluster's parallelism comes from its
        shards, so it ignores *processes*.
        """
        self.stats.batches += 1
        fingerprints = [reference_fingerprint(elements) for elements in references]
        unique: dict[str, Sequence[str]] = {}
        for fingerprint, elements in zip(fingerprints, references):
            unique.setdefault(fingerprint, elements)
        self.stats.batch_queries_deduplicated += len(references) - len(unique)

        answers: dict[str, tuple[SearchResult, ...]] = {}
        cold: list[tuple[str, Sequence[str]]] = []
        for fingerprint, elements in unique.items():
            started = time.perf_counter()
            key = (fingerprint, self._config_fp)
            entry = self.cache.get(key)
            if entry is not None:
                answers[fingerprint] = self._current(key, entry)
                self.stats.record_query(time.perf_counter() - started, True)
            else:
                cold.append((fingerprint, elements))

        size = self._block_size(processes) or max(1, len(cold))
        for start in range(0, len(cold), size):
            block = cold[start:start + size]
            started = time.perf_counter()
            block_results = self._run_cold(
                [elements for _, elements in block], processes
            )
            share = (time.perf_counter() - started) / len(block)
            for (fingerprint, _), (results, signed) in zip(
                block, block_results
            ):
                answers[fingerprint] = self._cache_put(
                    (fingerprint, self._config_fp), results, signed
                )
                self.stats.record_query(share, False)

        output: list[list[SearchResult]] = []
        emitted: set[str] = set()
        for fingerprint in fingerprints:
            if fingerprint in emitted:
                # Duplicate position: served from the batch's own answer.
                self.stats.record_query(0.0, True)
            emitted.add(fingerprint)
            output.append(list(answers[fingerprint]))
        return output
