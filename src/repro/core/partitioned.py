"""Partitioned discovery: bounded-memory operation over collection shards.

Section 3 assumes "both the data and the inverted index can fit in
memory" and leaves external memory as future work.  This module
implements the natural shard-at-a-time strategy: split the searched
collection S into partitions, and for each partition build its index,
run the engine runner (:meth:`repro.SilkMoth.run_passes`) over the
whole discovery schedule against it, then discard the index before
moving on.  Peak memory holds one partition's index instead of all of
S's, at the cost of running up to `len(partitions)` search passes per
reference -- about half of that in symmetric self-discovery, where a
reference probes only the sets after it and a partition lying wholly
at or below it gets no pass at all.  The driver is the one schedule of
:mod:`repro.pipeline.driver` over that per-partition runner; a
partition's local ids are a contiguous range of the global ones.

Correctness is immediate: relatedness of (R, S) depends only on R and
S, so searching each S-shard independently and concatenating results
is equivalent to searching all of S at once.  The tests assert exact
equality with the in-memory engine, including the self-discovery
deduplication semantics.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from repro.core.config import Relatedness, SilkMothConfig
from repro.core.engine import DiscoveryResult, SilkMoth
from repro.core.records import SetCollection
from repro.pipeline.driver import LocalIds, run_discovery
from repro.tokenize.vocabulary import Vocabulary


def iter_partitions(
    sets: Sequence[Sequence[str]], partition_size: int
) -> Iterator[tuple[int, Sequence[Sequence[str]]]]:
    """Yield (start offset, slice) chunks of *sets* of the given size."""
    if partition_size < 1:
        raise ValueError(f"partition_size must be >= 1, got {partition_size}")
    for start in range(0, len(sets), partition_size):
        yield start, sets[start : start + partition_size]


def partitioned_discover(
    sets: Sequence[Sequence[str]],
    config: SilkMothConfig,
    partition_size: int | None = None,
    reference_sets: Sequence[Sequence[str]] | None = None,
) -> list[DiscoveryResult]:
    """All related pairs, processing S one partition at a time.

    Parameters
    ----------
    sets:
        Raw searched collection S.
    config:
        Engine configuration (same semantics as :class:`repro.SilkMoth`).
    partition_size:
        Sets per shard; defaults to ``ceil(sqrt(len(sets)))`` which
        balances index-build count against index size.
    reference_sets:
        Raw reference collection R; ``None`` means self-discovery with
        the same pair deduplication as the in-memory engine.

    Returns
    -------
    DiscoveryResults sorted by (reference_id, set_id) -- identical to
    the in-memory engine's output on the same inputs.
    """
    n = len(sets)
    if n == 0:
        return []
    if partition_size is None:
        partition_size = max(1, math.ceil(math.sqrt(n)))

    self_mode = reference_sets is None

    # One shared vocabulary keeps token ids consistent across partitions
    # so reference tokenisation happens once.
    vocabulary = Vocabulary()
    references = SetCollection.from_strings(
        sets if self_mode else reference_sets,
        kind=config.similarity,
        q=config.effective_q,
        vocabulary=vocabulary,
    )

    def run_partitions(passes):
        """The engine runner once per partition, answers concatenated."""
        answers = [[] for _ in passes]
        for offset, chunk in iter_partitions(sets, partition_size):
            partition = SetCollection.from_strings(
                chunk,
                kind=config.similarity,
                q=config.effective_q,
                vocabulary=vocabulary,
            )
            ids = LocalIds(range(offset, offset + len(chunk)))
            for answer, (results, _) in zip(
                answers, SilkMoth(partition, config).run_passes(passes, references, ids)
            ):
                answer += results
            # The engine, and with it the partition's index, is dropped
            # here: only one partition's index is ever alive.
        return [(results, None) for results in answers]

    return run_discovery(
        run_partitions,
        range(len(references)),
        n_sets=n,
        self_mode=self_mode,
        symmetric=config.metric is Relatedness.SIMILARITY,
    )
