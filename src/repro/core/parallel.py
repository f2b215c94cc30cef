"""The pool runner: search passes across a process pool.

Discovery runs one independent search pass per reference set
(Section 3), which makes it embarrassingly parallel across references.
The paper ran on a 64-core machine; this module provides the same
scale-out on our substrate via :mod:`multiprocessing`.

:func:`run_pool` is the *pool runner* of :mod:`repro.pipeline.driver`.
Each worker process builds the collection and inverted index once (in
the pool initializer) and then runs chunks of passes through the
engine runner, :meth:`repro.SilkMoth.run_passes`.  Raw sets, the
config and the id table travel to the workers exactly once; per-chunk
traffic is just ``(reference_id, skip, floor)`` passes and their
results, so the speedup is not drowned by pickling.

:func:`parallel_discover` is the driver's one schedule over this
runner, so its output is identical to :meth:`repro.SilkMoth.discover`
regardless of process count; the service's ``search_many(processes>1)``
runs plain search passes through the same runner.
"""

from __future__ import annotations

import multiprocessing
from typing import Sequence

from repro.core.config import Relatedness, SilkMothConfig
from repro.core.engine import DiscoveryResult, SearchResult, SilkMoth
from repro.core.records import SetCollection
from repro.core.stats import PassStats
from repro.pipeline.driver import LocalIds, Pass, run_discovery

#: Per-process state installed by the pool initializer.
_WORKER: dict = {}


def _init_worker(sets, config, reference_sets, table) -> None:
    collection = SetCollection.from_strings(
        sets, kind=config.similarity, q=config.effective_q
    )
    engine = SilkMoth(collection, config)
    _WORKER["engine"] = engine
    _WORKER["references"] = (
        collection
        if reference_sets is None
        else engine.reference_collection(reference_sets)
    )
    _WORKER["ids"] = LocalIds(range(len(sets)) if table is None else table)


def _run_chunk(
    passes: list[Pass],
) -> list[tuple[list[SearchResult], PassStats | None]]:
    """The worker task: the engine runner over one chunk of passes."""
    return _WORKER["engine"].run_passes(
        passes, _WORKER["references"], _WORKER["ids"]
    )


def _chunk(passes: list[Pass], n_chunks: int) -> list[list[Pass]]:
    """Split *passes* into at most *n_chunks* contiguous chunks (four
    per process).

    In symmetric self-discovery a reference probes only the sets after
    it, so the chunks get cheaper from first to last (busy time 3:1 on
    800 sets in 8 chunks).  ``pool.map`` hands them out in that order
    to whichever worker is free -- longest first -- which keeps two
    workers within 2 % of an even split; dealing the passes strided was
    measured and gains nothing (CHANGES.md, PR 19).
    """
    n_chunks = max(1, min(n_chunks, len(passes)))
    size, remainder = divmod(len(passes), n_chunks)
    chunks = []
    start = 0
    for i in range(n_chunks):
        end = start + size + (1 if i < remainder else 0)
        chunks.append(passes[start:end])
        start = end
    return chunks


def run_pool(
    passes: Sequence[Pass],
    sets: Sequence[Sequence[str]],
    config: SilkMothConfig,
    reference_sets: Sequence[Sequence[str]] | None = None,
    processes: int | None = None,
    table: Sequence[int] | None = None,
) -> list[tuple[list[SearchResult], PassStats | None]]:
    """The pool runner: *passes* over the raw *sets*, in pass order.

    *reference_sets* are the raw references the passes index (``None``:
    *sets* themselves); *table* maps the position of each of *sets* to
    its global id (``None``: the identity).  *processes* defaults to
    ``multiprocessing.cpu_count()``; one process, or a single pass,
    runs in this process.
    """
    if processes is None:
        processes = multiprocessing.cpu_count()
    if not passes:
        return []
    payload = (
        tuple(map(tuple, sets)),
        config,
        tuple(map(tuple, reference_sets)) if reference_sets is not None else None,
        table,
    )
    if processes <= 1 or len(passes) <= 1:
        _init_worker(*payload)
        try:
            return _run_chunk(list(passes))
        finally:
            _WORKER.clear()
    chunks = _chunk(list(passes), processes * 4)
    with multiprocessing.Pool(
        processes=processes, initializer=_init_worker, initargs=payload
    ) as pool:
        return [answer for chunk in pool.map(_run_chunk, chunks) for answer in chunk]


def parallel_discover(
    sets: Sequence[Sequence[str]],
    config: SilkMothConfig,
    reference_sets: Sequence[Sequence[str]] | None = None,
    processes: int | None = None,
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

    Returns
    -------
    DiscoveryResults sorted by (reference_id, set_id) -- the same
    ordering the serial engine produces.
    """
    n_references = len(sets) if reference_sets is None else len(reference_sets)
    return run_discovery(
        lambda passes: run_pool(passes, sets, config, reference_sets, processes),
        range(n_references),
        n_sets=len(sets),
        self_mode=reference_sets is None,
        symmetric=config.metric is Relatedness.SIMILARITY,
    )
