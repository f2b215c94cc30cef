"""Structural invariants of a collection and its index, as assertions.

Shared by the suites that mutate an index or pin the select kernel
(``test_records_and_index``, ``test_select_columns``,
``test_element_dictionary``): each helper derives what a structure or a
counter must hold from the collection's records and the occurrence
postings alone, then compares.  :func:`gather_reference` is the select
probe's oracle (the per-posting loop the columnar probe replaced) and
:func:`dense_check` the check filter's (every surfaced set a row).
:func:`oracle_signature` is the signature schemes' oracle
(``test_signatures``): every scheme as written before the per-shape
tables, recomputing
:meth:`~repro.signatures.weights.ElementWeights.bound` on every call,
over :func:`oracle_rank`, the per-token key function ``rank_tokens``
replaced.
"""

from __future__ import annotations

import math
import pickle
from array import array
import random
from collections import defaultdict
from dataclasses import replace

from hypothesis import assume

from repro.backends.base import ComputeBackend
from repro.core.records import SetCollection, SetRecord
from repro.core.stats import PassStats
from repro.filters import check
from repro.filters.check import CandidateInfo
from repro.index.inverted import PACK_MASK, PACK_SHIFT, InvertedIndex
from repro.signatures import Signature, get_scheme
from repro.signatures.weighted import rank_tokens
from repro.signatures.weights import ElementWeights, weights_for
from repro.sim.functions import SimilarityFunction
from repro.sim.memo import SimilarityMemo

INF = float("inf")
#: Size windows: None, fully open (normalised away), closed, half-open, empty.
WINDOWS = (None, (-INF, INF), (1.0, 3.0), (2.0, INF), (4.0, 2.0))


def stored_keys(index) -> set[int]:
    """Every packed key some posting list (or the empty list) holds."""
    keys = set(index.empty_posting_keys())
    for token in index.tokens():
        keys.update(index.posting_keys(token))
    return keys


def assert_token_count_column_consistent(index, collection) -> None:
    """Token kinds: the token count column holds each stored key's ``|s_j|``.

    One entry per stored element (a key in some posting list or the
    empty list), so after ``compact`` nothing of a tombstoned set is
    left in it.
    """
    offsets, counts = index.token_count_column()
    keys = stored_keys(index)
    assert len(counts) == len(keys)
    for key in keys:
        set_id, j = key >> PACK_SHIFT, key & PACK_MASK
        assert counts[offsets[set_id] + j] == len(
            collection[set_id].elements[j].index_tokens
        )


def assert_forward_column_consistent(index, collection) -> None:
    """Edit kinds: the column holds exactly the stored keys' own records."""
    column = index.posting_elements()
    assert set(column) == stored_keys(index)
    for key, element in column.items():
        # The collection's own record, not a copy.
        assert element is collection[key >> PACK_SHIFT].elements[key & PACK_MASK]
    # No content table or token count column beside it.
    assert index.content_records() == [] and index.content_sets() == []
    assert not index.content_sizes()
    assert not any(len(index.content_ids(token)) for token in index.tokens())
    assert index.token_count_column() == (array("q"), array("q"))


def assert_content_table_consistent(index, collection) -> None:
    """Token kinds: the table lists exactly the stored occurrences' contents.

    Each stored non-empty element is listed, through its content, under
    each of its tokens exactly once; content ids ascend in every token
    list; occurrence arrays are ascending, distinct, and name exactly
    the stored sets holding the content (so after ``compact`` no
    tombstoned id and no content without a live occurrence is left);
    the size column agrees with the table.
    """
    records, occurrences = index.content_records(), index.content_sets()
    assert len(records) == len(occurrences)
    expected: dict[frozenset, set[int]] = {}
    for key in stored_keys(index):
        set_id = key >> PACK_SHIFT
        tokens = collection[set_id].elements[key & PACK_MASK].index_tokens
        if tokens:
            expected.setdefault(tokens, set()).add(set_id)
    # The flat column beside the table: each content's |c|.
    assert list(index.content_sizes()) == [
        len(record.index_tokens) for record in records
    ]
    # One id per distinct token set: equal sizes do not merge contents.
    assert len({record.index_tokens for record in records}) == len(records)
    assert {
        record.index_tokens: list(sets)
        for record, sets in zip(records, occurrences)
    } == {tokens: sorted(sets) for tokens, sets in expected.items()}
    listed_tokens = set()
    for token in index.tokens():
        ids = list(index.content_ids(token))
        assert ids == sorted(set(ids))
        assert ids == [
            content
            for content, record in enumerate(records)
            if token in record.index_tokens
        ]
        listed_tokens.add(token)
    assert listed_tokens == set().union(*expected)
    # An unindexed token reads as an empty run, not an error.
    assert len(index.content_ids(-7)) == 0
    # No forward column beside it.
    assert index.posting_elements() == {}
    assert_token_count_column_consistent(index, collection)


def assert_second_level_consistent(index, collection) -> None:
    """Whichever structure the collection's kind makes the index keep."""
    if collection.tokenizer.kind.is_token_based:
        assert_content_table_consistent(index, collection)
    else:
        assert_forward_column_consistent(index, collection)


def assert_index_pickles(index) -> None:
    """A pickled copy holds an equal, consistent table over shared records."""
    copy = pickle.loads(pickle.dumps(index))
    assert copy.content_records() == index.content_records()
    assert copy.content_sets() == index.content_sets()
    assert copy.content_sizes() == index.content_sizes()
    assert copy.posting_elements() == index.posting_elements()
    assert copy.token_count_column() == index.token_count_column()
    assert {t: list(copy.content_ids(t)) for t in copy.tokens()} == {
        t: list(index.content_ids(t)) for t in index.tokens()
    }
    assert_second_level_consistent(copy, copy.collection)
    # References survive: the copy's records are its collection's own.
    assert_records_shared(copy.collection)
    own = {id(element) for record in copy.collection for element in record.elements}
    assert all(id(record) in own for record in copy.content_records())


def assert_records_shared(collection) -> None:
    """One record object per distinct text, at every position holding it."""
    by_text: dict[str, object] = {}
    for record in collection:
        for element in record.elements:
            assert by_text.setdefault(element.text, element) is element
    # ... and distinct texts never share one, equal token sets or not.
    assert len({id(element) for element in by_text.values()}) == len(by_text)


def expected_funnel(
    signature, index, collection, window, skip, reference, stored, first_set=0
):
    """The select-funnel counts, from first principles.

    *stored* names the set ids physically in the index (every set until
    a compaction drops the tombstoned ones).  Edit kinds count per
    posting key, token kinds per distinct content -- worked out here
    from the collection's records alone, not from the content table.
    """
    if window == (-INF, INF):
        window = None
    deleted = collection.deleted_ids

    def gated(set_id):
        return set_id < first_set or set_id == skip or set_id in deleted

    def dropped(set_id):
        return (
            not gated(set_id)
            and window is not None
            and not window[0] <= len(collection[set_id]) <= window[1]
        )

    scanned = distinct = drops = 0
    if collection.tokenizer.kind.is_token_based:
        # content -> the stored sets holding it
        held: dict[frozenset, set[int]] = {}
        for set_id in stored:
            for element in collection[set_id].elements:
                if element.index_tokens:
                    held.setdefault(element.index_tokens, set()).add(set_id)
        surfaced: set[int] = set()
        for tokens in signature.per_element:
            # One content-list entry per (token, content holding it),
            # over the tokens some stored set at or above the floor
            # holds (a floored probe never opens the others) ...
            read = {
                token
                for content, sets in held.items()
                if max(sets) >= first_set
                for token in tokens & content
            }
            scanned += sum(len(read & content) for content in held)
            # ... and one scored pair per content reached, unless every
            # set holding it lies below the floor.
            for content, sets in held.items():
                if tokens & content and max(sets) >= first_set:
                    distinct += 1
                    surfaced |= sets
        drops += sum(map(dropped, surfaced))
    else:
        probes = [
            [
                [k for k in index.posting_keys(token) if k >> PACK_SHIFT >= first_set]
                for token in tokens
            ]
            for tokens in signature.per_element
        ]
        for runs in probes:
            scanned += sum(map(len, runs))
            merged = set().union(*runs)
            distinct += len(merged)
            drops += sum(dropped(key >> PACK_SHIFT) for key in merged)
    # The empty-element phase counts per posting key on both kinds.
    if any(not e.index_tokens for e in reference.elements):
        empties = [
            set_id
            for set_id in sorted(stored)
            if set_id >= first_set
            for element in collection[set_id].elements
            if not element.index_tokens
        ]
        scanned += len(empties)
        distinct += len(empties)
        drops += sum(map(dropped, empties))
    return scanned, distinct, drops


def gather_reference(
    reference: SetRecord,
    signature: Signature,
    index: InvertedIndex,
    phi: SimilarityFunction,
    collection: SetCollection,
    size_range: tuple[float, float] | None,
    skip_set: int | None,
    backend: ComputeBackend,
    memo: SimilarityMemo | None,
    first_set: int = 0,
) -> dict[int, CandidateInfo]:
    """The original per-posting select probe, the columnar probe's oracle.

    Walks :class:`~repro.index.inverted.Posting` tuples with per-pair
    set/dict bookkeeping exactly as the pre-columnar implementation
    did; ``tests/test_select_kernel.py`` and ``test_select_columns.py``
    pin :func:`repro.filters.check.select_columns` to its output bit
    for bit.  The *first_set* floor is one more per-posting test here,
    beside the self-skip it generalises.
    """
    bounds = signature.element_bounds
    token_based = phi.kind.is_token_based
    candidates: dict[int, CandidateInfo] = {}
    # Size-gate verdicts per candidate set, computed once per set rather
    # than once per posting.
    size_ok: dict[int, bool] = {}

    def passes_size_gate(set_id: int) -> bool:
        if size_range is None:
            return True
        ok = size_ok.get(set_id)
        if ok is None:
            size = len(collection[set_id])
            ok = size_range[0] <= size <= size_range[1]
            size_ok[set_id] = ok
        return ok

    # Tombstoned sets keep postings until the index compacts; skip them.
    deleted = collection.deleted_ids

    for i, tokens in enumerate(signature.per_element):
        if not tokens:
            continue
        bound_i = bounds[i]
        probe = reference.elements[i]
        # Gather this element's distinct (set_id, element_index) pairs
        # across all its signature tokens, so duplicated postings are
        # not recomputed and phi runs as one batch.
        seen_i: set[tuple[int, int]] = set()
        pairs: list[tuple[int, int]] = []
        for token in tokens:
            for set_id, element_index in index.postings(token):
                if set_id < first_set or set_id == skip_set or set_id in deleted:
                    continue
                key = (set_id, element_index)
                if key in seen_i:
                    continue
                seen_i.add(key)
                if not passes_size_gate(set_id):
                    continue
                pairs.append(key)
                if set_id not in candidates:
                    candidates[set_id] = CandidateInfo(set_id)
        if not pairs:
            continue
        if token_based:
            scores = backend.token_similarities(
                probe.index_tokens,
                [
                    collection[set_id].elements[j].index_tokens
                    for set_id, j in pairs
                ],
                phi,
            )
        elif memo is not None and memo.enabled:
            scores = [
                memo.edit_value(
                    phi, probe.text, collection[set_id].elements[j].text, bound_i
                )
                for set_id, j in pairs
            ]
        else:
            # *bound_i* lets the banded Levenshtein bail out early when
            # the score cannot beat the signature bound anyway.
            scores = [
                phi.edit_at_least(
                    probe.text, collection[set_id].elements[j].text, bound_i
                )
                for set_id, j in pairs
            ]
        for (set_id, _), score in zip(pairs, scores):
            if score > bound_i:
                info = candidates[set_id]
                if score > info.best.get(i, 0.0):
                    info.best[i] = score

    # Empty-after-tokenisation reference elements score similarity 1
    # against any empty candidate element, yet neither side carries a
    # token the probe above could meet.  Enumerate those candidates from
    # the index's empty-element postings and witness the (exact) NN
    # value of 1 so every downstream bound stays sound.
    empty_ref = [
        i
        for i, element in enumerate(reference.elements)
        if not element.index_tokens
    ]
    if empty_ref:
        witness = phi.threshold(1.0)
        for set_id, _ in index.empty_postings():
            if set_id < first_set or set_id == skip_set or set_id in deleted:
                continue
            if not passes_size_gate(set_id):
                continue
            info = candidates.get(set_id)
            if info is None:
                info = CandidateInfo(set_id)
                candidates[set_id] = info
            for i in empty_ref:
                if witness > bounds[i] and witness > info.best.get(i, 0.0):
                    info.best[i] = witness

    return candidates


def dense_check(candidates, bounds, cutoff, apply_check=True):
    """The check filter as the batch was built before the witnessed rows.

    One row per oracle candidate (*candidates*: :func:`gather_reference`'s
    output), its gain and estimate from :class:`CandidateInfo`; with
    *apply_check* every row whose ``residual + gain`` is below *cutoff*
    is dropped.  Returns the ``(set_ids, gains, estimates, best)``
    columns :func:`repro.filters.check.check_columns` must equal.
    """
    residual = sum(bounds)
    set_ids = sorted(candidates)
    gains = [candidates[set_id].gain(bounds) for set_id in set_ids]
    best = [candidates[set_id].best for set_id in set_ids]
    if not apply_check:
        return set_ids, gains, [INF] * len(set_ids), best
    estimates = [residual + gain for gain in gains]
    keep = [k for k, bound in enumerate(estimates) if bound >= cutoff]
    return (
        [set_ids[k] for k in keep],
        [gains[k] for k in keep],
        [estimates[k] for k in keep],
        [best[k] for k in keep],
    )


def assert_same_columns(got, expected):
    """Two check outputs are equal bit for bit, map key order included."""
    (ids, gains, estimates, best), (ids2, gains2, estimates2, best2) = got, expected
    assert ids == ids2
    assert gains == gains2 and estimates == estimates2
    assert [list(w.items()) for w in best] == [list(w.items()) for w in best2]


def assert_columns_match_the_oracle(
    reference, signature, index, phi, collection, window, skip, backend, memos,
    stored, first_set=0,
):
    """The probe's surfaced ids and witnessed rows equal the oracle's, the
    funnel counters a first-principles count, and the check's columns --
    dense or witnessed, on or off -- the dense rule's.  The probe runs
    with the token-kind overlap bound at its size gate and on every
    content (these collections are too small to reach the gate)."""
    packed_memo, oracle_memo = memos
    candidates = gather_reference(
        reference, signature, index, phi, collection, window, skip,
        backend, oracle_memo, first_set,
    )
    funnel = expected_funnel(
        signature, index, collection, window, skip, reference, stored, first_set
    )
    gate = check._BOUND_MIN_CONTENTS
    for min_contents in (gate, 0):
        stats = PassStats()
        check._BOUND_MIN_CONTENTS = min_contents
        try:
            surfaced, witnessed = check._gather_packed(
                reference, signature, index, phi, collection, window, skip,
                backend, packed_memo, stats, None, first_set,
            )
        finally:
            check._BOUND_MIN_CONTENTS = gate
        assert_rows_match(surfaced, witnessed, candidates, signature)
        assert (
            stats.select_postings_scanned,
            stats.select_distinct_pairs,
            stats.select_size_gate_drops,
        ) == funnel


def assert_rows_match(surfaced, witnessed, candidates, signature):
    """Surfaced ids and witnessed rows equal the oracle *candidates*', and
    :func:`~repro.filters.check.check_columns` the dense rule."""
    bounds = signature.element_bounds
    set_ids, gains, best = witnessed
    assert surfaced == sorted(candidates)
    assert set_ids == [s for s in surfaced if candidates[s].best]
    # Bit for bit: == on floats, no tolerance.
    assert gains == [candidates[set_id].gain(bounds) for set_id in set_ids]
    assert [list(w.items()) for w in best] == [
        list(candidates[set_id].best.items()) for set_id in set_ids
    ]
    assert all(type(score) is float for w in best for score in w.values())
    residual = sum(bounds)
    for cutoff in (residual - 0.5, residual, residual + 0.5):
        for apply_check in (True, False):
            checked = check.check_columns(
                surfaced, witnessed, residual, cutoff, apply_check
            )
            assert_same_columns(
                checked, dense_check(candidates, bounds, cutoff, apply_check)
            )
            # The NN filter fills the maps in place: no two rows may share one.
            assert len({id(w) for w in checked[3]}) == len(checked[3])


def select_probe(
    sets, reference_elements, member, kind, alpha, delta, slack, dead, compacted,
    q=1, shuffle=None,
):
    """Collection, index (tombstoned, maybe compacted), reference, signature, stored ids.

    The index is filled record by record -- in a seeded shuffled order
    when *shuffle* is given, so occurrences arrive out of order -- and
    its second level is checked after every mutation.  *slack* lowers
    every element bound of the generated signature: the kernels'
    identity does not depend on the bounds being tight, and looser ones
    let more pairs -- and the empty-element phase, whose bound the
    schemes put at 1.0 -- record a witness.
    """
    collection = SetCollection.from_strings([], kind=kind, q=q)
    index = InvertedIndex(collection)
    for elements in sets:
        collection.add_set(elements)
    order = list(range(len(sets)))
    if shuffle is not None:
        random.Random(shuffle).shuffle(order)
    for set_id in order:
        index.add_record(collection[set_id])
        assert_second_level_consistent(index, collection)
    if member is not None:
        member %= len(collection)
        reference = collection[member]
    else:
        # Ephemeral negative ids for unseen tokens, set_id -1.
        reference = collection.query_set(reference_elements)
    for set_id in sorted({d % len(collection) for d in dead} - {member}):
        index.note_removed(collection.remove_set(set_id))
    stored = set(range(len(collection)))
    if compacted:
        index.compact()
        stored -= collection.deleted_ids
    assert_second_level_consistent(index, collection)
    phi = SimilarityFunction(kind, alpha)
    assume(len(reference))
    signature = get_scheme("weighted").generate(
        reference, delta * len(reference), phi, index
    )
    # No signature: the pipeline full-scans and never probes.
    assume(signature is not None)
    signature = replace(
        signature,
        element_bounds=tuple(
            max(0.0, bound - slack) for bound in signature.element_bounds
        ),
    )
    return collection, index, reference, phi, signature, stored


# -- the signature oracle ---------------------------------------------


def _marginal(weights, selected):
    return weights.bound(selected) - weights.bound(selected + 1)


def _effective(weights, selected, alpha):
    if selected >= weights.budget:
        return 0.0
    raw = weights.bound(selected)
    return 0.0 if raw < alpha else raw


def _greedy(order, occurrences, weights, theta, alpha):
    """Section 4.3's greedy: ``(per_element, bounds)``, or None."""
    counts = [0] * len(weights)
    per_element = [set() for _ in weights]
    residual = sum(w.bound(0) for w in weights)
    for token in order:
        if residual < theta:
            break
        for i in occurrences[token]:
            residual -= _marginal(weights[i], counts[i])
            counts[i] += 1
            per_element[i].add(token)
    if residual >= theta:
        return None
    return per_element, [_effective(w, c, alpha) for w, c in zip(weights, counts)]


def _dichotomy(order, occurrences, weights, theta, alpha):
    counts = [0] * len(weights)
    saturated = [False] * len(weights)
    per_element = [set() for _ in weights]
    residual = sum(w.bound(0) for w in weights)
    for token in order:
        if residual < theta:
            break
        for i in occurrences[token]:
            if saturated[i]:
                continue
            residual -= _marginal(weights[i], counts[i])
            counts[i] += 1
            per_element[i].add(token)
            if counts[i] >= weights[i].budget:
                saturated[i] = True
                residual -= weights[i].bound(counts[i])
    if residual >= theta:
        return None
    return per_element, [
        0.0 if saturated[i] else _effective(w, counts[i], alpha)
        for i, w in enumerate(weights)
    ]


def _exhaustive(order, occurrences, weights, theta, alpha, cost, max_tokens=18):
    greedy = _greedy(order, occurrences, weights, theta, alpha)
    if greedy is None or len(order) > max_tokens:
        return greedy
    costs = [cost(token) for token in order]
    best = [sum(map(cost, set().union(*greedy[0]))), None]
    counts = [0] * len(weights)
    chosen = []

    def descend(pos, cost_so_far, residual):
        if residual < theta:
            if cost_so_far < best[0]:
                best[:] = [cost_so_far, list(chosen)]
            return
        if pos == len(order) or cost_so_far >= best[0]:
            return
        token = order[pos]
        delta = 0.0
        for i in occurrences[token]:
            delta += _marginal(weights[i], counts[i])
            counts[i] += 1
        chosen.append(token)
        descend(pos + 1, cost_so_far + costs[pos], residual - delta)
        chosen.pop()
        for i in occurrences[token]:
            counts[i] -= 1
        remaining = 0.0
        later_counts = list(counts)
        for later in order[pos + 1 :]:
            for i in occurrences[later]:
                remaining += _marginal(weights[i], later_counts[i])
                later_counts[i] += 1
        if residual - remaining < theta:
            descend(pos + 1, cost_so_far, residual)

    descend(0, 0, sum(w.bound(0) for w in weights))
    if best[1] is None:
        return greedy
    per_element = [set() for _ in weights]
    for token in best[1]:
        for i in occurrences[token]:
            per_element[i].add(token)
    return per_element, [
        _effective(w, len(s), alpha) for w, s in zip(weights, per_element)
    ]


def _fresh_weights(reference, phi):
    """Unshared :class:`ElementWeights` per element (no shape table)."""
    return [
        ElementWeights(phi.kind, phi.alpha, e.length, len(e.signature_tokens))
        for e in reference.elements
    ]


def oracle_rank(reference, index, weights):
    """:func:`~repro.signatures.weighted.rank_tokens` as a key function.

    The token order and occurrence map it returns, with one Python key
    per token: ``(cost / value, token)`` ascending, the cost read off
    ``posting_keys``, the value the ``bound`` drop of each element's
    first selected token, and ``(inf, token)`` for a value <= 0.
    """
    occurrences = defaultdict(list)
    for i, element in enumerate(reference.elements):
        for token in element.signature_tokens:
            occurrences[token].append(i)

    def key(token):
        value = sum(_marginal(weights[i], 0) for i in occurrences[token])
        if value <= 0.0:
            return (INF, token)
        return (len(index.posting_keys(token)) / value, token)

    return sorted(occurrences, key=key), occurrences


def assert_ranking_matches_the_oracle(reference, phi, index):
    """``rank_tokens`` over the shared shape tables ranks *reference*'s
    tokens exactly as :func:`oracle_rank` over fresh weights."""
    got = rank_tokens(reference, index, weights_for(reference, phi))
    want = oracle_rank(reference, index, _fresh_weights(reference, phi))
    assert got[0] == want[0]
    assert dict(got[1]) == dict(want[1])


def oracle_signature(name, reference, theta, phi, index):
    """What registered scheme *name* signs, computed the slow way.

    Fresh :class:`ElementWeights` per element (never the shared shape
    tables; only ``bound`` and ``budget`` are read), ``bound`` called
    for every bound and marginal, and list lengths read off
    ``posting_keys``.
    """
    alpha = phi.alpha
    weights = _fresh_weights(reference, phi)
    ranked, occurrences = oracle_rank(reference, index, weights)

    def cost(token):
        return len(index.posting_keys(token))

    def cheapest(tokens, count):
        return set(sorted(tokens, key=lambda t: (cost(t), t))[:count])

    if name in ("unweighted", "comb_unweighted"):
        budget = math.ceil(theta) - 1
        if budget >= sum(map(len, occurrences.values())):
            return None
        removed = set()
        for token in sorted(occurrences, key=lambda t: (-cost(t), t)):
            if len(occurrences[token]) <= budget:
                removed.add(token)
                budget -= len(occurrences[token])
            if budget == 0:
                break
        per_element = [set(e.signature_tokens) - removed for e in reference.elements]
        if name == "comb_unweighted" and alpha > 0.0:
            per_element = [
                cheapest(s, w.budget) if len(s) > w.budget else s
                for w, s in zip(weights, per_element)
            ]
        result = per_element, [
            _effective(w, len(s), alpha) for w, s in zip(weights, per_element)
        ]
    elif name == "sim_thresh":
        if alpha <= 0.0 or any(w.budget > w.n_tokens for w in weights):
            return None
        per_element = [
            cheapest(e.signature_tokens, w.budget)
            for w, e in zip(weights, reference.elements)
        ]
        result = per_element, [0.0] * len(weights)
    elif name == "random":
        if not ranked:
            return None
        random.Random(reference.set_id).shuffle(ranked)
        result = _greedy(ranked, occurrences, weights, theta, alpha)
    elif name == "exhaustive":
        result = _exhaustive(ranked, occurrences, weights, theta, alpha, cost)
    elif name == "dichotomy" and alpha > 0.0:
        result = _dichotomy(ranked, occurrences, weights, theta, alpha)
    else:
        result = _greedy(ranked, occurrences, weights, theta, alpha)
        if name == "skyline" and result is not None and alpha > 0.0:
            per_element, bounds = result
            for i, w in enumerate(weights):
                if len(per_element[i]) >= w.budget:
                    per_element[i] = cheapest(per_element[i], w.budget)
                    bounds[i] = 0.0
    if result is None:
        return None
    per_element, bounds = result
    return Signature(
        tokens=frozenset().union(*per_element),
        per_element=tuple(frozenset(s) for s in per_element),
        element_bounds=tuple(bounds),
        scheme=name,
    )


def assert_signature_matches_the_oracle(name, reference, theta, phi, index):
    """*name*'s signature equals the oracle's, bounds compared bit for bit."""
    got = get_scheme(name).generate(reference, theta, phi, index)
    want = oracle_signature(name, reference, theta, phi, index)
    if want is None:
        assert got is None
        return
    assert got is not None
    assert (got.scheme, got.tokens, got.per_element) == (
        want.scheme, want.tokens, want.per_element,
    )
    assert [b.hex() for b in got.element_bounds] == [
        b.hex() for b in want.element_bounds
    ]
