"""The element-major NN filter against the per-candidate loop, bit for bit.

:func:`repro.filters.nearest_neighbor.nn_filter_columns` refines all
candidates of a pass one reference element at a time; for token kinds
it reads ``|r_i & s_j|`` off the posting lists instead of intersecting
sets, for edit kinds it walks each group set's elements and scores each
distinct text sharing a gram once.  None of it may change a float: the loop it replaced is
kept here verbatim as the oracle (one index-backed search per candidate
and element, scored through a compute backend), and every observable --
``keep``, ``estimates``, the witnessed maps including their insertion
order, which downstream float summation sees -- must compare equal on
any input: tombstoned and compacted sets, elements that tokenise to
nothing on either side, duplicate elements, unsorted, repeated and
single-candidate batches, references from outside the collection, an
index built by out-of-order ``add_record``, and the oracle under every
memo state (the filter itself keeps none) -- with the numpy group walk
forced on and forced off (``kernel_axis``).  The
refinement *schedule* is pinned as well: the ``(element, group)``
sequence handed to ``nn_search_group`` equals the one of the waiting
lists the filter used to build up front, kept here as its oracle.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.filters.nearest_neighbor as nearest_neighbor
from repro.backends import get_backend
from repro.core.records import SetCollection, SetRecord
from repro.filters.check import CandidateInfo
from repro.filters.nearest_neighbor import (
    nearest_neighbor_filter,
    nn_filter_columns,
    nn_search,
    nn_search_group,
)
from repro.index.inverted import PACK_MASK, PACK_SHIFT, InvertedIndex, pack_posting
from repro.sim.functions import SimilarityFunction, SimilarityKind
from repro.sim.memo import SimilarityMemo
from strategies import (
    EDIT_KINDS,
    TOKEN_KINDS,
    collections,
    elements,
    string_collections,
    string_sets,
    token_sets,
)
from strategies.kernels import kernel_axis  # noqa: F401 (autouse axis)

ALPHAS = (0.0, 0.5, 0.8)

#: Memo capacities: absent, disabled, roomy, and evicting on every store.
MEMOS = (None, 0, 4096, 1)

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# The oracle: the per-candidate loop this filter used to be, verbatim
# (``InvertedIndex.elements_in_set`` moved here with it).
# ----------------------------------------------------------------------
def _elements_in_set(index, token, set_id):
    keys = index.posting_keys(token)
    if not keys:
        return ()
    lo = bisect_left(keys, set_id << PACK_SHIFT)
    hi = bisect_left(keys, (set_id + 1) << PACK_SHIFT, lo)
    return tuple(keys[i] & PACK_MASK for i in range(lo, hi))


def _oracle_nn_search(
    element, set_id, index, phi, collection, floor=0.0, backend=None, memo=None
):
    best = floor
    candidate_record = collection[set_id]
    if phi.kind.is_token_based:
        if backend is None:
            backend = get_backend()
        if not element.index_tokens:
            if any(not s.index_tokens for s in candidate_record.elements):
                top = phi.threshold(1.0)
                if top > best:
                    return top
            return best
        seen = set()
        for token in element.index_tokens:
            seen.update(_elements_in_set(index, token, set_id))
        if not seen:
            return best
        # Re-keyed (PR 20): element positions against the candidate's own
        # element tuple (a token-kind index has no forward column).
        scores = backend.indexed_token_similarities(
            element.index_tokens, candidate_record.elements, sorted(seen), phi
        )
        top = float(max(scores))
        return top if top > best else best
    seen_edit = set()
    memoized = memo is not None and memo.enabled
    for token in element.index_tokens:
        for j in _elements_in_set(index, token, set_id):
            if j in seen_edit:
                continue
            seen_edit.add(j)
            if memoized:
                score = memo.edit_value(
                    phi, element.text, candidate_record.elements[j].text, best
                )
            else:
                score = phi.edit_at_least(
                    element.text, candidate_record.elements[j].text, best
                )
            if score > best:
                best = score
    return best


def _oracle_nn_filter_columns(
    reference, set_ids, best_maps, bounds, theta, index, phi, collection,
    q=1, backend=None, memo=None,
):
    if backend is None:
        backend = get_backend()
    caps = [phi.no_share_cap(element.length, q) for element in reference.elements]
    keep = []
    estimates = []
    for k, set_id in enumerate(set_ids):
        best = best_maps[k]
        total = 0.0
        pending = []
        for i, bound_i in enumerate(bounds):
            witnessed = best.get(i)
            if witnessed is not None:
                total += witnessed
            else:
                effective = max(bound_i, caps[i])
                total += effective
                if effective > 0.0:
                    pending.append(i)
        if total < theta:
            continue
        pending.sort(key=lambda i: -max(bounds[i], caps[i]))
        pruned = False
        for i in pending:
            nn = _oracle_nn_search(
                reference.elements[i],
                set_id,
                index,
                phi,
                collection,
                backend=backend,
                memo=memo,
            )
            nn = max(nn, caps[i])
            total += nn - max(bounds[i], caps[i])
            best[i] = nn
            if total < theta:
                pruned = True
                break
        if not pruned:
            keep.append(k)
            estimates.append(total)
    return keep, estimates


def _distinct_elements(case):
    """*case* with a reference whose equal elements are distinct objects.

    Collections share one record per distinct text, so an element's
    position is only recoverable from its identity once equal elements
    are copies.
    """
    reference = case[4]
    copies = tuple(replace(element) for element in reference.elements)
    return case[:4] + (SetRecord(reference.set_id, copies),) + case[5:]


def _position(reference, element):
    return next(i for i, e in enumerate(reference.elements) if e is element)


def _oracle_schedule(case):
    """The ``(element, group set ids)`` sequence of the up-front waiting lists.

    The filter's body as it was before groups were built lazily,
    verbatim but for the search call, which records its arguments.
    """
    phi, q, collection, index, reference, set_ids, best_maps, bounds, theta = case
    best_maps = [dict(best) for best in best_maps]
    calls = []

    def nn_search_group(element, group_ids, *args):
        calls.append((_position(reference, element), list(group_ids)))
        return nearest_neighbor.nn_search_group(element, group_ids, *args)

    caps = [phi.no_share_cap(element.length, q) for element in reference.elements]
    effective = [max(bound, cap) for bound, cap in zip(bounds, caps)]
    totals = [0.0] * len(set_ids)
    alive = [False] * len(set_ids)
    waiting = [[] for _ in effective]
    for k in sorted(range(len(set_ids)), key=set_ids.__getitem__):
        best = best_maps[k]
        total = 0.0
        pending = []
        for i, estimated in enumerate(effective):
            witnessed = best.get(i)
            if witnessed is not None:
                total += witnessed
            else:
                total += estimated
                if estimated > 0.0:
                    pending.append(i)
        totals[k] = total
        if total >= theta:
            alive[k] = True
            for i in pending:
                waiting[i].append(k)
    for i in sorted(range(len(effective)), key=lambda i: -effective[i]):
        group = [k for k in waiting[i] if alive[k]]
        if not group:
            continue
        nearest = nn_search_group(
            reference.elements[i],
            [set_ids[k] for k in group],
            index,
            phi,
            collection,
        )
        cap, estimated = caps[i], effective[i]
        for k in group:
            nn = nearest.get(set_ids[k], 0.0)
            if cap > nn:
                nn = cap
            totals[k] += nn - estimated
            best_maps[k][i] = nn
            if totals[k] < theta:
                alive[k] = False
    return calls


def _recorded_schedule(case):
    """The ``(element, group set ids)`` calls ``nn_filter_columns`` makes."""
    phi, q, collection, index, reference, set_ids, best_maps, bounds, theta = case
    calls = []
    search = nearest_neighbor.nn_search_group

    def recording(element, group_ids, *args):
        calls.append((_position(reference, element), list(group_ids)))
        return search(element, group_ids, *args)

    # A context, not the fixture: Hypothesis refuses function-scoped ones.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nearest_neighbor, "nn_search_group", recording)
        nn_filter_columns(
            reference, set_ids, [dict(best) for best in best_maps], bounds,
            theta, index, phi, collection, q=q,
        )
    return calls


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: Bound and witness values; repeats force ties in the refinement order.
_VALUES = (0.0, 0.2, 0.5, 0.5, 0.8, 0.9, 1.0)


@st.composite
def filter_cases(draw, kinds, sets_strategy, reference_strategy):
    """One NN-filter input over a freshly built, possibly mutated index.

    Returns ``(phi, q, collection, index, reference, set_ids, best_maps,
    bounds, theta)``.
    """
    kind = draw(st.sampled_from(kinds))
    phi = SimilarityFunction(kind, draw(st.sampled_from(ALPHAS)))
    q = draw(st.sampled_from((1, 2, 3))) if kind.is_edit_based else 1
    collection = SetCollection.from_strings(draw(sets_strategy), kind=kind, q=q)
    ids = list(range(len(collection)))

    where = draw(st.sampled_from(("member", "sibling", "query")))
    if where == "member":
        reference = collection[draw(st.sampled_from(ids))]
    elif where == "sibling":
        reference = collection.sibling().add_set(draw(reference_strategy))
    else:
        reference = collection.query_set(draw(reference_strategy))

    doomed = draw(st.lists(st.sampled_from(ids), unique=True, max_size=2))
    if draw(st.booleans()):
        index = InvertedIndex(collection)
        for set_id in doomed:
            index.note_removed(collection.remove_set(set_id))
        if draw(st.booleans()):
            index.compact()
    else:
        # Records indexed in arbitrary order: every touched posting
        # list is re-sorted by add_record.
        index = InvertedIndex(
            SetCollection.from_strings(
                [], kind=kind, q=q, vocabulary=collection.vocabulary
            )
        )
        for set_id in draw(st.permutations(ids)):
            index.add_record(collection[set_id])
        for set_id in doomed:
            index.note_removed(collection.remove_set(set_id))

    set_ids = draw(st.lists(st.sampled_from(ids), max_size=8))
    size = len(reference)
    bounds = tuple(draw(st.sampled_from(_VALUES)) for _ in range(size))
    best_maps = [
        {
            i: draw(st.sampled_from(_VALUES))
            for i in draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
        }
        if size
        else {}
        for _ in set_ids
    ]
    theta = draw(st.sampled_from((0.0, 0.3, 0.6, 0.8, 0.95, 1.0, 1.3))) * sum(bounds)
    return phi, q, collection, index, reference, set_ids, best_maps, bounds, theta


def _memo(capacity):
    return None if capacity is None else SimilarityMemo(capacity)


def _observed(result, best_maps):
    keep, estimates = result
    return keep, estimates, [list(best.items()) for best in best_maps]


def _assert_identical(case, backend=None, capacity=None):
    phi, q, collection, index, reference, set_ids, best_maps, bounds, theta = case
    expected_maps = [dict(best) for best in best_maps]
    expected = _oracle_nn_filter_columns(
        reference, set_ids, expected_maps, bounds, theta, index, phi, collection,
        q=q, backend=backend, memo=_memo(capacity),
    )
    actual_maps = [dict(best) for best in best_maps]
    actual = nn_filter_columns(
        reference, set_ids, actual_maps, bounds, theta, index, phi, collection,
        q=q,
    )
    assert _observed(actual, actual_maps) == _observed(expected, expected_maps)


class TestIdentityWithThePerCandidateLoop:
    @pytest.mark.parametrize("capacity", MEMOS)
    @_SETTINGS
    @given(case=filter_cases(TOKEN_KINDS, collections(), token_sets()))
    def test_token_kinds(self, capacity, case):
        _assert_identical(case, capacity=capacity)

    @pytest.mark.parametrize("capacity", MEMOS)
    @_SETTINGS
    @given(case=filter_cases(EDIT_KINDS, string_collections(), string_sets()))
    def test_edit_kinds(self, capacity, case):
        _assert_identical(case, capacity=capacity)

    @pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
    @pytest.mark.parametrize("kind", TOKEN_KINDS + EDIT_KINDS)
    def test_larger_batches_prune_midway(self, kind, repeated):
        # Enough candidates and elements that groups shrink element by
        # element: some candidates die first, some last, some never.
        rng = random.Random(kind.value)
        if kind.is_edit_based:
            words = ["".join(rng.choice("abcd") for _ in range(rng.randint(3, 7))) for _ in range(12)]
        else:
            words = [" ".join(rng.sample("pqrstuvw", rng.randint(1, 4))) for _ in range(12)]
        sets = [[rng.choice(words) for _ in range(rng.randint(2, 6))] for _ in range(40)]
        collection = SetCollection.from_strings(sets, kind=kind, q=2 if kind.is_edit_based else 1)
        index = InvertedIndex(collection)
        phi = SimilarityFunction(kind, 0.5)
        for reference in list(collection)[:10]:
            size = len(reference)
            set_ids = rng.sample(range(len(collection)), 25)
            if repeated:
                # Groups past the default numpy gate that name some
                # sets twice: the second copy must count nothing.
                set_ids += rng.choices(set_ids, k=8)
            bounds = tuple(rng.choice((0.4, 0.7, 1.0)) for _ in range(size))
            best_maps = [
                {i: rng.choice(_VALUES) for i in rng.sample(range(size), rng.randint(0, 1))}
                for _ in set_ids
            ]
            case = (phi, 2, collection, index, reference, set_ids, best_maps, bounds, 0.55 * sum(bounds))
            _assert_identical(case, capacity=4096)


class TestRefinementSchedule:
    """Lazily built groups refine exactly the waiting lists' pairs, in order."""

    @_SETTINGS
    @given(
        case=filter_cases(
            TOKEN_KINDS + EDIT_KINDS, collections(), token_sets()
        )
    )
    def test_schedule_is_the_waiting_lists(self, case):
        case = _distinct_elements(case)
        assert _recorded_schedule(case) == _oracle_schedule(case)

    @pytest.mark.parametrize("kind", TOKEN_KINDS)
    def test_schedule_of_a_pruning_batch(self, kind):
        rng = random.Random(7 + len(kind.value))
        words = [" ".join(rng.sample("pqrstuvw", rng.randint(1, 4))) for _ in range(12)]
        sets = [[rng.choice(words) for _ in range(rng.randint(2, 6))] for _ in range(40)]
        collection = SetCollection.from_strings(sets, kind=kind)
        index = InvertedIndex(collection)
        phi = SimilarityFunction(kind, 0.5)
        for reference in list(collection)[:10]:
            size = len(reference)
            set_ids = rng.sample(range(len(collection)), 30)
            bounds = tuple(rng.choice((0.4, 0.7, 1.0)) for _ in range(size))
            best_maps = [
                {i: rng.choice(_VALUES) for i in rng.sample(range(size), rng.randint(0, 1))}
                for _ in set_ids
            ]
            case = _distinct_elements(
                (phi, 1, collection, index, reference, set_ids, best_maps, bounds, 0.55 * sum(bounds))
            )
            expected = _oracle_schedule(case)
            assert expected  # something is refined
            assert _recorded_schedule(case) == expected


class TestCountedIntersections:
    @pytest.mark.parametrize("kind", TOKEN_KINDS)
    @_SETTINGS
    @given(x=elements(max_words=5), y=elements(max_words=5), alpha=st.sampled_from(ALPHAS))
    def test_tokens_from_counts_is_tokens(self, kind, x, y, alpha):
        phi = SimilarityFunction(kind, alpha)
        x_tokens, y_tokens = frozenset(x.split()), frozenset(y.split())
        counted = phi.tokens_from_counts(
            len(x_tokens), len(y_tokens), len(x_tokens & y_tokens)
        )
        direct = phi.tokens(x_tokens, y_tokens)
        assert counted == direct and type(counted) is type(direct)

    @pytest.mark.parametrize("kind", EDIT_KINDS)
    @pytest.mark.parametrize("shared", (0, 1))
    def test_edit_kinds_are_rejected(self, kind, shared):
        with pytest.raises(ValueError, match="token-based"):
            SimilarityFunction(kind).tokens_from_counts(2, 2, shared)


class TestGroupWalk:
    @_SETTINGS
    @given(
        case=filter_cases(TOKEN_KINDS + EDIT_KINDS, collections(), token_sets()),
        data=st.data(),
    )
    def test_walk_is_brute_force_enumeration(self, case, data):
        _, _, collection, index, *_ = case
        group = sorted(
            data.draw(st.lists(st.integers(0, len(collection) - 1), max_size=6))
        )
        for token in range(len(collection.vocabulary)):
            stored = {p.set_id for p in index.postings(token)}
            expected = [
                pack_posting(set_id, j)
                for set_id in sorted(set(group) & stored)
                for j, element in enumerate(collection[set_id].elements)
                if token in element.index_tokens
            ]
            assert index.keys_in_sets(token, group) == expected

    def test_one_set_search_is_the_group_search(self):
        collection = SetCollection.from_strings([["a b", "a c d"], ["x"], ["a", "b c"]])
        index = InvertedIndex(collection)
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        probe = collection.query_set(["a b c"]).elements[0]
        group = nn_search_group(probe, [0, 1, 2], index, phi, collection)
        assert group == {0: 2 / 3, 2: 2 / 3}
        for set_id in range(3):
            assert nn_search(probe, set_id, index, phi, collection) == group.get(set_id, 0.0)
            assert nn_search(probe, set_id, index, phi, collection, floor=0.9) == 0.9

