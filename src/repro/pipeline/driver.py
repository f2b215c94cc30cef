"""The one discovery schedule, and the id translation every runner shares.

RELATED SET DISCOVERY runs one search pass per reference and applies
two rules on top (Section 3): in self-discovery the reference must not
match itself, and under the symmetric SET-SIMILARITY metric each
unordered pair is reported exactly once.  Those rules live here and
only here, in two forms that cannot disagree:

:func:`keep_discovery_pair`
    The rule itself, a predicate on one (reference, set) row in global
    ids.

:func:`discovery_floor`
    The same rule as a property of the *pass*: in symmetric
    self-discovery the reference's pass only has to probe the sets
    after it, so it carries a candidate floor of ``reference_id + 1``
    (:attr:`~repro.pipeline.plan.QueryPlan.first_set`) and never
    selects, checks, NN-filters or verifies the mirrored half.  This is
    the classic self-join triangle and it is exact for one reason: the
    unordered pair {A, B}, A < B, is found by A's pass because a search
    pass is exact for *any* reference, so B's pass need not look at A.
    The rows that survive :func:`keep_discovery_pair` are exactly the
    rows at or above the floor, so the reported pairs (ids, scores,
    order) do not depend on it; there is no switch to turn it off.

Every discovery driver is *schedule + runner*.  :func:`run_discovery`
is the schedule: the ordered ``(reference_id, skip, floor)`` pass list
(:func:`discovery_passes`), a **pass runner** (passes in, one
``(results in global ids, stats)`` per pass out) and the
rule on its rows.  The runners are the engine's
:meth:`~repro.core.engine.SilkMoth.run_passes` (in process), the
pool's :func:`~repro.core.parallel.run_pool` and the cluster's shard
blocks; :class:`LocalIds` is the one translation of a pass into a
runner's local set ids.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.results import DiscoveryResult, SearchResult
from repro.core.stats import PassStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.records import SetCollection

#: One scheduled pass: (reference_id, skip, floor) in global ids.
Pass = Tuple[int, Optional[int], int]

#: Passes in, one ``(results, stats)`` per pass out; the stats are
#: ``None`` for a pass that ran nowhere, or from a runner keeping none.
PassRunner = Callable[
    [Sequence[Pass]], List[Tuple[List[SearchResult], Optional[PassStats]]]
]


def discovery_floor(reference_id: int, *, self_mode: bool, symmetric: bool) -> int:
    """Smallest global set id *reference_id*'s discovery pass must probe.

    ``reference_id + 1`` in self-discovery under a symmetric metric
    (every pair with a smaller id is found by that id's own pass, and
    the floor subsumes the self pair), 0 -- no floor -- otherwise:
    SET-CONTAINMENT is directional and an external reference shares no
    id space with the searched collection.
    """
    return reference_id + 1 if self_mode and symmetric else 0


def keep_discovery_pair(
    reference_id: int, set_id: int, *, self_mode: bool, symmetric: bool
) -> bool:
    """Whether discovery reports the (reference, set) pair (Section 3).

    In self-discovery the self pair is dropped, and under a symmetric
    metric each unordered pair is kept only from the smaller reference
    id (the other direction finds it with the roles swapped): the set
    must lie at or above the reference's :func:`discovery_floor`.  Ids
    are in the *global* numbering, whatever runner produced the row.
    """
    if self_mode and set_id == reference_id:
        return False
    return set_id >= discovery_floor(
        reference_id, self_mode=self_mode, symmetric=symmetric
    )


def discovery_passes(
    reference_ids: Iterable[int], *, n_sets: int, self_mode: bool, symmetric: bool
) -> list[Pass]:
    """The ordered pass list of one discovery run over *n_sets* sets.

    In self-discovery each pass skips its reference; a reference whose
    floor lies past the last set id (the last one, under a symmetric
    metric) gets no pass at all.
    """
    passes = []
    for reference_id in reference_ids:
        floor = discovery_floor(
            reference_id, self_mode=self_mode, symmetric=symmetric
        )
        if floor and floor >= n_sets:
            continue
        passes.append((reference_id, reference_id if self_mode else None, floor))
    return passes


def search_passes(count: int, floor: int = 0) -> list[Pass]:
    """*count* SEARCH passes: reference i against every set with id >=
    *floor* (a cached answer's refresh; 0 = every set)."""
    return [(i, None, floor) for i in range(count)]


def run_discovery(
    runner: PassRunner,
    reference_ids: Iterable[int],
    *,
    n_sets: int,
    self_mode: bool,
    symmetric: bool,
    references: SetCollection | None = None,
    searched: SetCollection | None = None,
) -> list[DiscoveryResult]:
    """The discovery schedule: every driver's rows, in pass order.

    *references* and *searched* are the tokenised reference and
    searched collections, when the caller holds both: a pass compares
    token ids, so they must share one vocabulary and tokenizer.
    """
    if references is not None and (
        references.vocabulary is not searched.vocabulary
        or references.tokenizer != searched.tokenizer
    ):
        raise ValueError(
            "reference sets must share the searched collection's vocabulary "
            "and tokenizer; build them with SilkMoth.reference_collection"
        )
    passes = discovery_passes(
        reference_ids, n_sets=n_sets, self_mode=self_mode, symmetric=symmetric
    )
    output: list[DiscoveryResult] = []
    for (reference_id, _, _), (results, _) in zip(passes, runner(passes)):
        for result in results:
            if keep_discovery_pair(
                reference_id, result.set_id, self_mode=self_mode, symmetric=symmetric
            ):
                output.append(
                    DiscoveryResult(
                        reference_id, result.set_id, result.score, result.relatedness
                    )
                )
    return output


class LocalIds:
    """A runner's local -> global set-id table, and passes through it.

    The identity (a ``range``) for the engine and the pool, a
    contiguous ``range`` for a partition, the live ids for the
    service's pool and the placement table, which
    :meth:`~repro.cluster.SilkMothCluster.rebalance` may disorder, for
    a shard.  Lookups are built on first use: a plain search is free.
    """

    def __init__(self, table: Sequence[int]):
        self.table = table
        self._identity = table == range(len(table))

    @cached_property
    def _running_max(self) -> Sequence[int]:
        # A range ascends: it is its own running maximum.
        if isinstance(self.table, range):
            return self.table
        return list(accumulate(self.table, max))

    @cached_property
    def _local_of(self) -> dict[int, int]:
        return {gid: local for local, gid in enumerate(self.table)}

    def local_pass(self, skip: int | None, floor: int) -> tuple[int | None, int] | None:
        """``(skip, first)`` in local ids, or ``None``: no pass here.

        *first* bisects the running maximum, so every local id below it
        maps under the floor (sound), and it is tight while the table
        ascends; past a disordered table's cut a set from under the
        floor may surface, and the pair rule drops it.  A skip under
        the cut is subsumed by it.
        """
        first = bisect_left(self._running_max, floor) if floor else 0
        if floor and first >= len(self.table):
            return None
        if skip is not None:
            skip = self._local_of.get(skip)
            if skip is not None and skip < first:
                skip = None
        return skip, first

    def to_global(self, results: list[SearchResult]) -> list[SearchResult]:
        """*results* with their local set ids replaced by global ones."""
        if self._identity:
            return results
        table = self.table
        return [
            SearchResult(table[result.set_id], result.score, result.relatedness)
            for result in results
        ]
