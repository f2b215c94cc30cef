"""Parallel RELATED SET DISCOVERY over a process pool.

Discovery runs one independent search pass per reference set
(Section 3), which makes it embarrassingly parallel across references.
The paper ran on a 64-core machine; this module provides the same
scale-out on our substrate via :mod:`multiprocessing`.

Each worker process builds the collection and inverted index once (in
the pool initializer) and then serves chunks of reference ids.  Raw
sets and the config travel to the workers exactly once; per-chunk
traffic is just integer id lists and result tuples, so the speedup is
not drowned by pickling.

The output is deterministic and identical to
:meth:`repro.SilkMoth.discover` (sorted the same way), regardless of
process count or chunking.  :func:`parallel_search` runs the same pool
for plain search passes (the service's ``search_many(processes>1)``).
"""

from __future__ import annotations

import multiprocessing
from typing import Sequence

from repro.core.config import SilkMothConfig
from repro.core.engine import DiscoveryResult, SearchResult, SilkMoth
from repro.core.records import SetCollection
from repro.core.stats import PassStats
from repro.pipeline.driver import search_rows

#: Per-process state installed by the pool initializer.
_WORKER: dict = {}


def _build_engine(
    sets: Sequence[Sequence[str]],
    config: SilkMothConfig,
    reference_sets: Sequence[Sequence[str]] | None,
) -> tuple[SilkMoth, SetCollection]:
    collection = SetCollection.from_strings(
        sets, kind=config.similarity, q=config.effective_q
    )
    engine = SilkMoth(collection, config)
    if reference_sets is None:
        references = collection
    else:
        references = engine.reference_collection(reference_sets)
    return engine, references


def _init_worker(sets, config, reference_sets) -> None:
    engine, references = _build_engine(sets, config, reference_sets)
    _WORKER["engine"] = engine
    _WORKER["references"] = references
    _WORKER["self_mode"] = reference_sets is None


def _search_chunk(reference_ids: list[int]) -> list[tuple[int, int, float, float]]:
    """One worker task: pipeline search passes for a chunk of reference ids.

    Pair-dedup semantics come from the shared pipeline driver, so the
    rows are exactly the serial engine's.
    """
    engine: SilkMoth = _WORKER["engine"]
    references = _WORKER["references"]
    self_mode: bool = _WORKER["self_mode"]
    rows: list[tuple[int, int, float, float]] = []
    for reference_id in reference_ids:
        rows.extend(
            search_rows(
                engine,
                references[reference_id],
                reference_id,
                self_mode=self_mode,
            )
        )
    return rows


def _pass_chunk(
    reference_ids: list[int],
) -> list[tuple[list[SearchResult], PassStats]]:
    """One worker task: a search pass, with its stats, per reference id."""
    engine: SilkMoth = _WORKER["engine"]
    references = _WORKER["references"]
    return [
        engine.search_with_stats(references[reference_id])
        for reference_id in reference_ids
    ]


def _chunk(ids: list[int], n_chunks: int) -> list[list[int]]:
    """Split *ids* into at most *n_chunks* contiguous chunks.

    In symmetric self-discovery a reference probes only the sets after
    it, so the chunks get cheaper from first to last (busy time 3:1 on
    800 sets in 8 chunks).  ``pool.map`` hands them out in that order
    to whichever worker is free -- longest first -- which keeps two
    workers within 2 % of an even split; dealing the ids strided was
    measured and gains nothing (CHANGES.md, PR 19).
    """
    n_chunks = max(1, min(n_chunks, len(ids)))
    size, remainder = divmod(len(ids), n_chunks)
    chunks = []
    start = 0
    for i in range(n_chunks):
        end = start + size + (1 if i < remainder else 0)
        chunks.append(ids[start:end])
        start = end
    return chunks


def _map_references(
    task,
    sets: Sequence[Sequence[str]],
    config: SilkMothConfig,
    reference_sets: Sequence[Sequence[str]] | None,
    processes: int | None,
    chunks_per_process: int,
) -> list:
    """Run the worker *task* over every reference id; outputs in id order.

    One process, or a single reference, runs *task* in this process.
    """
    if processes is None:
        processes = multiprocessing.cpu_count()
    n_references = len(reference_sets) if reference_sets is not None else len(sets)
    if n_references == 0:
        return []
    payload_sets = tuple(map(tuple, sets))
    payload_refs = (
        tuple(map(tuple, reference_sets)) if reference_sets is not None else None
    )
    reference_ids = list(range(n_references))
    if processes <= 1 or n_references <= 1:
        _init_worker(payload_sets, config, payload_refs)
        try:
            return task(reference_ids)
        finally:
            _WORKER.clear()
    chunks = _chunk(reference_ids, processes * chunks_per_process)
    with multiprocessing.Pool(
        processes=processes,
        initializer=_init_worker,
        initargs=(payload_sets, config, payload_refs),
    ) as pool:
        return [item for chunk in pool.map(task, chunks) for item in chunk]


def parallel_discover(
    sets: Sequence[Sequence[str]],
    config: SilkMothConfig,
    reference_sets: Sequence[Sequence[str]] | None = None,
    processes: int | None = None,
    chunks_per_process: int = 4,
) -> list[DiscoveryResult]:
    """All related pairs, computed across a process pool.

    Parameters
    ----------
    sets:
        Raw searched collection S (list of element-string lists).
    config:
        Engine configuration shared by every worker.
    reference_sets:
        Raw reference collection R; ``None`` means self-discovery
        (R = S) with the same pair deduplication as the serial engine.
    processes:
        Pool size; defaults to ``multiprocessing.cpu_count()``.
    chunks_per_process:
        Work-stealing granularity: how many chunks each process gets on
        average.  More chunks smooth imbalance between cheap and
        expensive references at slightly higher dispatch overhead.

    Returns
    -------
    DiscoveryResults sorted by (reference_id, set_id) -- the same
    ordering the serial engine produces.
    """
    rows = _map_references(
        _search_chunk, sets, config, reference_sets, processes, chunks_per_process
    )
    rows.sort(key=lambda row: (row[0], row[1]))
    return [
        DiscoveryResult(
            reference_id=reference_id,
            set_id=set_id,
            score=score,
            relatedness=relatedness,
        )
        for reference_id, set_id, score, relatedness in rows
    ]


def parallel_search(
    sets: Sequence[Sequence[str]],
    config: SilkMothConfig,
    reference_sets: Sequence[Sequence[str]],
    processes: int | None = None,
) -> list[tuple[list[SearchResult], PassStats]]:
    """Per reference, in order: :meth:`repro.SilkMoth.search_with_stats`
    of one pass, run across a process pool."""
    return _map_references(_pass_chunk, sets, config, reference_sets, processes, 4)
