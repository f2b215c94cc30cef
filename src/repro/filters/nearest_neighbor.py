"""The nearest-neighbour filter (paper Section 5.2, Algorithm 2).

The matching score is at most ``sum_i max_s phi_alpha(r_i, s)``.  The
filter starts from the signature bounds, substitutes the exact values
witnessed by the check filter (computation reuse), and then refines the
remaining elements one by one with an index-backed NN search, early
terminating as soon as the estimate drops below theta.

For edit similarity the index-backed search only retrieves elements
sharing a q-gram with the probe.  Two strings can have non-zero edit
similarity without sharing any q-gram, so the search result is combined
with the no-shared-gram cap ``|r| / (|r| + ceil(|r|/q))`` from Section
7.1 (:meth:`~repro.sim.functions.SimilarityFunction.no_share_cap`);
under the evaluation's ``q < alpha/(1-alpha)`` constraint that cap is
below alpha and vanishes after thresholding.  The edit-kind group search
walks the group's sets rather than the probe's posting runs and scores
each distinct sharing text once per call (:func:`nn_search_group`).

Loop order: Algorithm 2 refines a candidate's elements worst bound
first, and that order depends on the reference element alone, so every
candidate of a pass walks the same global element order.
:func:`nn_filter_columns` therefore iterates *element-major*: for each
reference element, one :func:`nn_search_group` answers every candidate
that still needs it (token kinds walk each of the element's posting
lists once, edit kinds each group set once).
The group is built when its element is refined -- the candidates still
alive at that moment with no witness for it, in set-id order -- so a
candidate pruned at its first refined element (most of them) costs no
other element anything: set-up is one C-level fold per candidate for
its starting total, and no per-(candidate, element) waiting list is
kept.  Each candidate sees exactly the additions, in exactly the order,
of a per-candidate loop, so estimates and witnessed maps are
bit-identical to it (``tests/test_nn_filter.py`` keeps that loop as the
oracle, and the up-front waiting lists as the schedule's).
:func:`nearest_neighbor_filter` is the row-per-candidate wrapper.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Sequence

from repro.backends import get_backend
from repro.core.records import ElementRecord, SetCollection, SetRecord
from repro.filters.check import CandidateInfo
from repro.index.inverted import PACK_SHIFT, InvertedIndex
from repro.sim.functions import SimilarityFunction


def nn_search_group(
    element: ElementRecord,
    set_ids: Sequence[int],
    index: InvertedIndex,
    phi: SimilarityFunction,
    collection: SetCollection,
) -> dict[int, float]:
    """Exact NN similarity of *element* within each of *set_ids*, via the index.

    *set_ids* must be ascending.  Returns ``{set_id: phi_alpha of the
    nearest element}`` for the sets where that is positive; a missing
    set means no element sharing an index token scores above zero
    (Section 5.2 -- the caller combines the result with the no-share
    cap where that matters).  A set the index does not hold (never
    added, or compacted away) yields nothing, as its postings would.

    Token kinds walk each token's posting run once for the whole group
    (:meth:`InvertedIndex.keys_in_sets`), and the walk is the
    similarity: the index holds one posting per (element, distinct
    token) -- ``index_tokens`` is a frozenset, and tombstoning,
    out-of-order ``add_record`` re-sorts and compaction all keep it so
    -- hence the number of *element*'s tokens whose run contains
    ``(S, j)`` is ``|element & s_j|`` exactly, and the score is the
    kind's closed form on the three sizes
    (:meth:`SimilarityFunction.tokens_from_counts`); the compute
    backend runs that walk
    (:meth:`~repro.backends.base.ComputeBackend.nearest_in_sets`, on
    numpy arrays for a large group).

    Edit kinds walk the group *set-major*: each held set's elements
    (the index holds a set iff the forward column has its key
    ``(S, 0)``), of which only those sharing a gram with *element* --
    exactly the ones its posting runs reach -- can score.  Each
    distinct text is tested once per call (one C-level ``isdisjoint``)
    and, if it shares, scored once, unbounded
    (``phi.edit_at_least(text, other, 0.0)``); a set keeps its
    maximum.  A max does not depend on the walk order, and a value
    above a floor is the same float with or without it, so the result
    is the posting walk's bit for bit.
    """
    tokens = element.index_tokens
    if phi.kind.is_token_based:
        if tokens:
            return get_backend().nearest_in_sets(tokens, set_ids, index, phi)
        # Empty probe: similarity is 1 against an empty candidate
        # element (invisible to the index) and 0 against the rest.
        nearest: dict[int, float] = {}
        top = phi.threshold(1.0)
        if top > 0.0:
            for set_id in set_ids:
                if any(not s.index_tokens for s in collection[set_id].elements):
                    nearest[set_id] = top
        return nearest
    nearest = {}
    if not tokens:
        return nearest  # shares no gram with anything
    disjoint = tokens.isdisjoint
    text = element.text
    stored = index.posting_elements()
    scores: dict[str, float] = {}
    for set_id in set_ids:
        if (set_id << PACK_SHIFT) not in stored:
            continue
        best = 0.0
        for other in collection[set_id].elements:
            other_text = other.text
            score = scores.get(other_text)
            if score is None:
                score = scores[other_text] = (
                    0.0
                    if disjoint(other.index_tokens)
                    else phi.edit_at_least(text, other_text, 0.0)
                )
            if score > best:
                best = score
        if best > 0.0:
            nearest[set_id] = best
    return nearest


def nn_search(
    element: ElementRecord,
    set_id: int,
    index: InvertedIndex,
    phi: SimilarityFunction,
    collection: SetCollection,
    floor: float = 0.0,
) -> float:
    """Exact NN similarity of *element* within set *set_id*, at least *floor*.

    The one-set case of :func:`nn_search_group`.
    """
    nearest = nn_search_group(element, (set_id,), index, phi, collection)
    return max(floor, nearest.get(set_id, 0.0))


def nn_filter_columns(
    reference: SetRecord,
    set_ids: Sequence[int],
    best_maps: Sequence[dict[int, float]],
    bounds: tuple[float, ...],
    theta: float,
    index: InvertedIndex,
    phi: SimilarityFunction,
    collection: SetCollection,
    q: int = 1,
) -> tuple[list[int], list[float]]:
    """Algorithm 2 over a columnar candidate batch.

    Parameters
    ----------
    set_ids / best_maps:
        Parallel arrays: candidate set ids (any order) and their
        witnessed NN similarities (mutated in place as refinement fills
        them in -- the computation-reuse contract of Section 5.2).
    bounds:
        The signature's per-element bounds; *q* is the gram length
        (ignored for token kinds).

    Returns
    -------
    ``(keep, estimates)``: indices into the batch that survive, and the
    refined score upper bound for each survivor (parallel to *keep*).
    """
    caps = [phi.no_share_cap(element.length, q) for element in reference.elements]
    effective = [max(bound, cap) for bound, cap in zip(bounds, caps)]
    # Start from the check filter's estimate: witnessed exact NN values
    # where they exist, signature bounds elsewhere, added in element
    # order (a C-level left fold: the bits of a ``+=`` loop, which a
    # compensated ``sum`` would not give).
    elements = range(len(effective))
    totals = [
        reduce(add, map(best.get, elements, effective), 0.0) for best in best_maps
    ]
    # The still-alive candidates in set-id order (the batch may arrive
    # unsorted through the row wrapper), so every group is ascending.
    live = [
        k
        for k in sorted(range(len(set_ids)), key=set_ids.__getitem__)
        if totals[k] >= theta
    ]
    # Refine the estimated elements with exact NN searches, worst bound
    # first so the estimates fall fastest.  Element i's group is built
    # when i is refined: the live candidates with no witness for i
    # (refining i writes best[i] and nothing else, so those are the
    # candidates that had none at the start).  A pruned candidate
    # leaves ``live`` and costs no later element a search.
    for i in sorted(elements, key=lambda i: -effective[i]):
        estimated = effective[i]
        if estimated <= 0.0:
            break  # the rest are 0 too: nothing to refine
        group = [k for k in live if i not in best_maps[k]]
        if not group:
            continue
        nearest = nn_search_group(
            reference.elements[i],
            [set_ids[k] for k in group],
            index,
            phi,
            collection,
        )
        cap = caps[i]
        pruned = False
        for k in group:
            nn = nearest.get(set_ids[k], 0.0)
            if cap > nn:
                nn = cap
            totals[k] += nn - estimated
            best_maps[k][i] = nn
            if totals[k] < theta:
                pruned = True
        if pruned:
            live = [k for k in live if totals[k] >= theta]
    keep = sorted(live)
    return keep, [totals[k] for k in keep]


def nearest_neighbor_filter(
    reference: SetRecord,
    candidates: list[CandidateInfo],
    bounds: tuple[float, ...],
    theta: float,
    index: InvertedIndex,
    phi: SimilarityFunction,
    collection: SetCollection,
    q: int = 1,
) -> list[CandidateInfo]:
    """Algorithm 2: prune candidates by the NN upper bound.

    Row-per-candidate wrapper around :func:`nn_filter_columns`; the
    surviving infos carry the refined ``best`` values.
    """
    keep, _ = nn_filter_columns(
        reference,
        [info.set_id for info in candidates],
        [info.best for info in candidates],
        bounds,
        theta,
        index,
        phi,
        collection,
        q=q,
    )
    return [candidates[k] for k in keep]
