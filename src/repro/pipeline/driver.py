"""Shared discovery-driver semantics for every execution strategy.

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

The serial engine, :mod:`repro.core.parallel`,
:mod:`repro.core.partitioned` and the service's batch fan-out all call
:func:`search_rows`, and the cluster coordinator -- whose passes run
on remote shards, outside any one engine -- takes its per-shard floors
from the same :func:`discovery_floor` and applies the same
:func:`keep_discovery_pair` predicate to its merged rows, so the pair
semantics cannot drift apart across drivers (none of them
re-implements any part of the funnel).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import Relatedness
from repro.core.records import SetRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import SilkMoth

#: One discovery row: (reference_id, set_id, score, relatedness).
Row = tuple[int, int, float, float]


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
    are in the *global* numbering, whatever driver produced the row.
    """
    if self_mode and set_id == reference_id:
        return False
    return set_id >= discovery_floor(
        reference_id, self_mode=self_mode, symmetric=symmetric
    )


def search_rows(
    engine: "SilkMoth",
    reference: SetRecord,
    reference_id: int,
    *,
    self_mode: bool,
    id_offset: int = 0,
) -> list[Row]:
    """One reference's discovery rows against *engine*'s collection.

    Parameters
    ----------
    reference_id:
        The reference's id in the *global* reference numbering.
    self_mode:
        Self-discovery (R = S): skip the self pair and, under the
        symmetric SET-SIMILARITY metric, report each unordered pair
        once (when the reference id is the smaller one) -- by probing
        only the sets at or above the reference's
        :func:`discovery_floor`.  A pass with nothing at or above its
        floor (the last reference; a partition lying wholly at or
        below the reference) is not run at all.
    id_offset:
        Global id of the engine collection's first set -- non-zero when
        the engine serves one shard of a partitioned collection.
        Returned set ids are translated back to global ids.
    """
    symmetric = engine.config.metric is Relatedness.SIMILARITY
    floor = discovery_floor(reference_id, self_mode=self_mode, symmetric=symmetric)
    skip = None
    first_set = 0
    if floor:
        first_set = max(0, floor - id_offset)
        if first_set >= len(engine.collection):
            return []
    elif self_mode:
        local = reference_id - id_offset
        if 0 <= local < len(engine.collection):
            skip = local
    rows: list[Row] = []
    for result in engine.search(reference, skip_set=skip, first_set=first_set):
        set_id = result.set_id + id_offset
        if keep_discovery_pair(
            reference_id, set_id, self_mode=self_mode, symmetric=symmetric
        ):
            rows.append((reference_id, set_id, result.score, result.relatedness))
    return rows
