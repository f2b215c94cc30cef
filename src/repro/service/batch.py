"""The query front: ``search``, ``search_many`` and the result cache, once.

(Not to be confused with :mod:`repro.planner`, which decides *how* a
single pass runs; this module decides *which* references need a pass
at all.)

:class:`QueryFront` is what :class:`repro.service.SilkMothService` and
:class:`repro.cluster.SilkMothCluster` share: the cache key, the
write-generation-gated cache probe, intra-batch deduplication and the
:class:`~repro.service.stats.ServiceStats` accounting.  A batch's
duplicates collapse onto one computation, references cached since the
last mutation come from the cache, and the cold remainder goes to the
subclass's *cold runner* in blocks, each reference charged an equal
share of its block's wall clock.  The cold runner is one of the pass
runners of :mod:`repro.pipeline.driver`: the service's is the engine
runner, one reference per block (or, for ``processes > 1``, the pool
runner over the whole remainder); the cluster's sends blocks of
:data:`repro.cluster.coordinator.PASS_BLOCK` references to its shards.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core.engine import SearchResult
from repro.obs.trace import span
from repro.service.cache import reference_fingerprint


class QueryFront:
    """``search`` / ``search_many`` over a generation-gated result cache.

    A subclass provides ``cache``, ``generation`` (bumped by every
    mutation), ``stats``, ``_config_fp`` and the two hooks below.
    """

    def _block_size(self, processes: int | None) -> int | None:
        """Cold references per :meth:`_run_cold` call (``None`` = all)."""
        raise NotImplementedError

    def _run_cold(
        self, references: Sequence[Sequence[str]], processes: int | None
    ) -> list[list[SearchResult]]:
        """Uncached passes: one result list per raw reference, in order."""
        raise NotImplementedError

    def search(self, elements: Sequence[str]) -> list[SearchResult]:
        """All live sets related to the raw reference *elements*.

        Served from the cache when this reference (under this config)
        was answered since the last mutation; otherwise one pass runs
        and the answer is cached.  Set ids are the server's own.
        """
        with span("service.query") as query_span:
            key = (reference_fingerprint(elements), self._config_fp)
            started = time.perf_counter()
            with span("cache.probe"):
                cached = self.cache.get(key, self.generation)
            if cached is not None:
                query_span.set_attr("cache", "hit")
                self.stats.record_query(time.perf_counter() - started, True)
                return list(cached)
            query_span.set_attr("cache", "miss")
            (results,) = self._run_cold([elements], None)
            self.cache.put(key, self.generation, tuple(results))
            self.stats.record_query(time.perf_counter() - started, False)
            return results

    def search_many(
        self,
        references: Sequence[Sequence[str]],
        processes: int | None = None,
    ) -> list[list[SearchResult]]:
        """Answer a batch of references; one result list per input.

        Exact duplicates within the batch are computed once; references
        cached since the last mutation are served without a pass; the
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
            cached = self.cache.get(
                (fingerprint, self._config_fp), self.generation
            )
            if cached is not None:
                answers[fingerprint] = cached
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
            for (fingerprint, _), results in zip(block, block_results):
                answers[fingerprint] = tuple(results)
                self.cache.put(
                    (fingerprint, self._config_fp),
                    self.generation,
                    answers[fingerprint],
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
