"""Candidate selection and the check filter (paper Section 5.1, Algorithm 1).

Candidate selection probes the inverted index with every signature
token.  The check filter piggybacks on that probe: for each candidate
element that shares a signature token with reference element ``r_i``,
compute the actual ``phi_alpha`` and remember it only when it exceeds
the element's signature bound ``u_i``.  A candidate whose best witnessed
similarities never beat the bounds is capped by ``sum(u_i)``, so it can
be dropped whenever that residual is below theta.

The per-candidate witnessed maxima are *exact* nearest-neighbour
similarities (computation reuse, Section 5.2): any candidate element
sharing no signature token with ``r_i`` is bounded by ``u_i`` anyway.

The probe's output is columnar: :func:`select_columns` returns the
candidate batch's ``set_ids`` / ``sizes`` / ``gains`` / ``best``
columns, which the pipeline's select stage installs as is;
:func:`select_and_check` is the row-per-candidate wrapper for
explain-style callers, baselines and tests.

The probe is the columnar index-traversal kernel.  Which level of the
index it probes follows from the similarity kind.

*Edit kinds* probe the occurrence postings.  Per reference element
the kernel gathers the signature tokens' packed posting arrays
(:meth:`~repro.index.inverted.InvertedIndex.posting_keys`), hands
them -- shortest first -- to the compute backend's
:meth:`~repro.backends.base.ComputeBackend.merge_distinct_postings`
(a galloping sorted-run merge in pure Python, ``numpy.unique`` over
``int64`` views on long probes), and receives the distinct
gated keys with no per-posting tuple, set or dict traffic.
Self-match, tombstone and size gates are applied inside the merge
at run level -- once per candidate set -- and skipped entirely when
no gate applies.  A pass's candidate floor (``first_set``, set by
symmetric self-discovery) is not one of those gates: keys ascend by
set id, so each run is cut with one ``bisect_left`` *before* the
merge and the postings below the floor are never read, merged,
counted or masked.  The cut is a slice -- a copy of the suffix, not
a view -- because a buffer export over a posting array would make
the next :meth:`~repro.index.inverted.InvertedIndex.add_record`
raise ``BufferError`` for as long as anything (a traceback, say)
kept it alive.  The merged keys' texts come off the index's forward
column
(:meth:`~repro.index.inverted.InvertedIndex.posting_elements`) and
are scored as one query-wide ``edit_values`` batch.

*Token kinds* probe distinct contents.  A token-kind score depends
on an element's token set alone, and column data repeats its
values, so the index lists each distinct token set once
(:meth:`~repro.index.inverted.InvertedIndex.content_ids`) with the
sets it occurs in.  Per reference element the kernel unions the
signature tokens' content-id runs, drops the contents whose last
occurrence lies below the floor, scores each remaining content
once -- the backend's
:meth:`~repro.backends.base.ComputeBackend.indexed_token_similarities`
over the content table -- and expands only the witnesses to their
sets.  Every merged content's sets are surfaced; the floor,
self-match, tombstone and size gates run once per surfaced *set*
at the end of the probe.

Either way, as in Algorithm 1, a surfaced set costs almost
nothing until it proves interesting: only the pairs whose score
beats ``u_i`` (the witnesses) get a ``best`` entry; every other
candidate is just its id, its size off
:meth:`~repro.index.inverted.InvertedIndex.set_sizes` and a zero
gain.

The original per-posting loop, :func:`_gather_reference`, is kept
verbatim as the executable oracle the kernel is property-tested
against (``tests/test_select_kernel.py``, ``tests/test_select_columns.py``).
Both record, per (reference element, candidate set), the maximum of
the same ``phi_alpha`` values -- the token probe computes each
distinct content's value once where the oracle computes it per
occurrence -- in the same (reference-element, then empty-element)
phase order, so the columns -- including ``best``-map insertion order,
which downstream float summation observes, and the gains summed in
that order -- are bit-identical.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter, rshift
from typing import Tuple

from repro.backends import get_backend
from repro.backends.base import ComputeBackend
from repro.core.records import SetCollection, SetRecord
from repro.core.stats import PassStats
from repro.index.inverted import PACK_SHIFT, InvertedIndex
from repro.obs.trace import span
from repro.sim.functions import SimilarityFunction
from repro.sim.memo import SimilarityMemo
from repro.signatures.base import Signature

_TEXT = attrgetter("text")


@dataclass
class CandidateInfo:
    """What the check filter learned about one candidate set.

    ``best`` maps reference-element index i to the exact nearest
    neighbour similarity of r_i within the candidate, recorded only when
    it exceeds the signature bound ``u_i``.
    """

    set_id: int
    best: dict[int, float] = field(default_factory=dict)

    def estimate(self, bounds: tuple[float, ...]) -> float:
        """Upper bound on the matching score given the signature bounds."""
        return sum(bounds) + self.gain(bounds)

    def gain(self, bounds: tuple[float, ...]) -> float:
        """``estimate(bounds) - sum(bounds)``: the witnessed improvement."""
        total = 0.0
        for i, score in self.best.items():
            total += score - bounds[i]
        return total


#: The candidate batch's columns, parallel and ascending by set id:
#: ``(set_ids, sizes, gains, best)``.
SelectColumns = Tuple[list[int], list[int], list[float], list[dict[int, float]]]


def select_columns(
    reference: SetRecord,
    signature: Signature,
    index: InvertedIndex,
    phi: SimilarityFunction,
    collection: SetCollection,
    size_range: tuple[float, float] | None = None,
    skip_set: int | None = None,
    backend: ComputeBackend | None = None,
    memo: SimilarityMemo | None = None,
    pass_stats: PassStats | None = None,
    first_set: int = 0,
) -> SelectColumns:
    """Algorithm 1's probe, as the columns of a candidate batch.

    Parameters
    ----------
    size_range:
        Optional (min, max) bounds on candidate cardinality (the size
        check of Section 5, footnote 6, and the containment gate).
    skip_set:
        Set id to exclude (self-matches in discovery mode).
    backend:
        Compute backend for the posting merge and the batched
        similarity evaluation; ``None`` resolves the process-wide one.
    memo:
        Cross-stage similarity memo for the edit kinds (``None``
        computes every pair).
    pass_stats:
        Optional per-pass stats the probe reports its select-funnel
        counters on (postings scanned, distinct pairs, size-gate
        drops: per posting key for the edit kinds, per distinct
        content and per set for the token kinds).
    first_set:
        Candidate floor: only sets with id >= *first_set* are probed
        (symmetric self-discovery; 0 probes the whole index).  The
        funnel counters cover only what was read above it.

    Returns
    -------
    ``(set_ids, sizes, gains, best)``: every surfaced set in ascending
    id order, its cardinality, its witnessed improvement over the
    signature residual (``sum_i best_i - u_i``) and its witnessed map.
    The check filter proper -- ``residual + gain >= theta`` -- is left
    to the caller (:class:`~repro.pipeline.stages.CheckFilterStage`
    runs it over the columns; :func:`select_and_check` per row).
    """
    if backend is None:
        backend = get_backend()
    with span("select.kernel") as sp:
        return _gather_packed(
            reference,
            signature,
            index,
            phi,
            collection,
            size_range,
            skip_set,
            backend,
            memo,
            pass_stats,
            sp,
            first_set,
        )


def select_and_check(
    reference: SetRecord,
    signature: Signature,
    index: InvertedIndex,
    phi: SimilarityFunction,
    theta: float,
    collection: SetCollection,
    apply_check: bool = True,
    size_range: tuple[float, float] | None = None,
    skip_set: int | None = None,
    backend: ComputeBackend | None = None,
    memo: SimilarityMemo | None = None,
    pass_stats: PassStats | None = None,
) -> list[CandidateInfo]:
    """Algorithm 1, one :class:`CandidateInfo` row per candidate.

    The row-API wrapper around :func:`select_columns` (same parameters,
    minus the discovery-only candidate floor) for explain-style
    callers, baselines and tests; the pipeline
    consumes the columns directly.  With *apply_check* the candidates
    whose estimate cannot reach *theta* are pruned; without it they are
    only gathered (the NOFILTER configurations of Figure 6), still
    carrying their witnessed similarities for downstream reuse.

    Returns
    -------
    Candidate infos for every set that survived; ordering follows set id.
    """
    set_ids, _, gains, best = select_columns(
        reference,
        signature,
        index,
        phi,
        collection,
        size_range=size_range,
        skip_set=skip_set,
        backend=backend,
        memo=memo,
        pass_stats=pass_stats,
    )
    infos = [
        CandidateInfo(set_id, witnessed)
        for set_id, witnessed in zip(set_ids, best)
    ]
    if not apply_check:
        return infos
    # Prune candidates whose estimate cannot reach theta.  The estimate
    # is sound for every scheme because each u_i individually bounds the
    # contribution of r_i.
    residual = sum(signature.element_bounds)
    return [
        info for info, gain in zip(infos, gains) if residual + gain >= theta
    ]


def _from_floor(run: array, floor_key: int) -> array:
    """The part of one ascending posting *run* at or above *floor_key*.

    The run itself when nothing lies below the floor, otherwise a
    *copy* of the suffix: one bisect and one memcpy per run, and
    nothing that pins the index's array (see the module docstring).
    """
    cut = bisect_left(run, floor_key)
    return run[cut:] if cut else run


def _gather_packed(
    reference: SetRecord,
    signature: Signature,
    index: InvertedIndex,
    phi: SimilarityFunction,
    collection: SetCollection,
    size_range: tuple[float, float] | None,
    skip_set: int | None,
    backend: ComputeBackend,
    memo: SimilarityMemo | None,
    pass_stats: PassStats | None,
    sp,
    first_set: int = 0,
) -> SelectColumns:
    """The columnar probe: index runs in, batch columns out.

    Surfaces the same candidates with the same witnessed maps as
    :func:`_gather_reference` -- same pair sets, same scores, same
    witness order -- without an object per surfaced set.  Token kinds
    probe the index's content table (:func:`_probe_contents`), edit
    kinds its occurrence postings and forward column
    (:func:`_probe_postings`); the empty-element phase and the column
    assembly are common.
    """
    bounds = signature.element_bounds
    # Hoisted no-op fast path: a fully open size window (what the
    # pipeline passes when the size filter is disabled) is no gate at
    # all, so normalise it away here rather than comparing every
    # candidate against +/-inf.
    if size_range is not None and size_range[0] == float(
        "-inf"
    ) and size_range[1] == float("inf"):
        size_range = None
    deleted = collection.deleted_ids
    sizes = index.set_sizes()
    gates = (first_set, skip_set, deleted, sizes, size_range)
    #: The witnessed maps of the few surfaced sets that have one.
    best_of: dict[int, dict[int, float]] = {}
    #: Every surfaced set id, gated; then the three funnel counters.
    if phi.kind.is_token_based:
        surfaced, scanned, distinct, size_drops = _probe_contents(
            reference, signature, index, phi, gates, backend, best_of
        )
    else:
        surfaced, scanned, distinct, size_drops = _probe_postings(
            reference, signature, index, phi, gates, backend, memo, best_of
        )

    # Empty-after-tokenisation reference elements score similarity 1
    # against any empty candidate element, yet neither side carries a
    # token the probe above could meet.  Enumerate those candidates from
    # the index's empty-element postings -- once per distinct set id,
    # since the witness value is per-set -- so every downstream bound
    # stays sound.
    empty_ref = [
        i
        for i, element in enumerate(reference.elements)
        if not element.index_tokens
    ]
    if empty_ref:
        empty_keys = index.empty_posting_keys()
        if first_set:
            empty_keys = _from_floor(empty_keys, first_set << PACK_SHIFT)
        if len(empty_keys):
            top = phi.threshold(1.0)
            kept, n_scanned, n_distinct, n_drops = (
                backend.merge_distinct_postings(
                    [empty_keys], skip_set, deleted, sizes, size_range
                )
            )
            scanned += n_scanned
            distinct += n_distinct
            size_drops += n_drops
            with_empty = set(map(rshift, kept, repeat(PACK_SHIFT)))
            surfaced |= with_empty
            beaten = [i for i in empty_ref if top > bounds[i]]
            for set_id in with_empty if beaten else ():
                best = best_of.setdefault(set_id, {})
                for i in beaten:
                    if top > best.get(i, 0.0):
                        best[i] = top

    if pass_stats is not None:
        pass_stats.select_postings_scanned += scanned
        pass_stats.select_distinct_pairs += distinct
        pass_stats.select_size_gate_drops += size_drops
    if sp:
        sp.set_attr("postings_scanned", scanned)
        sp.set_attr("distinct_pairs", distinct)
        sp.set_attr("size_gate_drops", size_drops)

    # Gains accumulate with += in the maps' insertion order -- the sum
    # CandidateInfo.gain takes (sum() is compensated on 3.12: not it).
    gain_of: dict[int, float] = {}
    for set_id, best in best_of.items():
        total = 0.0
        for i, score in best.items():
            total += score - bounds[i]
        gain_of[set_id] = total
    set_ids = sorted(surfaced)
    return (
        set_ids,
        list(map(sizes.__getitem__, set_ids)),
        list(map(gain_of.get, set_ids, repeat(0.0))),
        [best_of.get(set_id) or {} for set_id in set_ids],
    )


def _probe_contents(
    reference: SetRecord,
    signature: Signature,
    index: InvertedIndex,
    phi: SimilarityFunction,
    gates: tuple,
    backend: ComputeBackend,
    best_of: dict[int, dict[int, float]],
) -> tuple[set[int], int, int, int]:
    """The token-kind probe, over distinct contents instead of occurrences.

    Per reference element: merge the signature tokens' content-id runs
    (:meth:`~repro.index.inverted.InvertedIndex.content_ids`; unread for
    a token held only below the *first_set* floor), drop the
    contents whose *last* occurrence lies below the *first_set* floor,
    score each remaining content once --
    :meth:`~repro.backends.base.ComputeBackend.indexed_token_similarities`
    over the content table's records -- and expand only the witnesses
    to the sets they occur in (from the floor on), into *best_of*.
    Every merged content's sets are surfaced, by one C-level
    ``set.update``.  The floor, self-match, tombstone and size-window
    gates then run once per surfaced *set*; the columns are read off
    the gated ids, so a dropped set's witnessed map in *best_of* is
    never looked at again.

    A witnessed maximum does not depend on the order its candidates
    are visited in, and a content's score is the closed form on the
    same three sizes as any of its occurrences', so the maps equal the
    per-occurrence probe's bit for bit.

    Returns the gated set ids and the funnel counters: content-list
    entries read, distinct (reference element, content) pairs scored,
    sets the size window dropped.
    """
    first_set, skip_set, deleted, sizes, size_range = gates
    bounds = signature.element_bounds
    content_ids = index.content_ids
    records = index.content_records()
    sets_of = index.content_sets().__getitem__
    if first_set:
        # Posting runs ascend: a token whose last posting lies below
        # the floor (so every content holding it) is never read.
        floor_key = first_set << PACK_SHIFT

        def content_ids(token: int):
            keys = index.posting_keys(token)
            return index.content_ids(token) if keys and keys[-1] >= floor_key else ()

    scanned = distinct = 0
    surfaced: set[int] = set()
    for i, tokens in enumerate(signature.per_element):
        if not tokens:
            continue
        runs = [run for run in map(content_ids, tokens) if run]
        if not runs:
            continue
        scanned += sum(map(len, runs))
        contents = runs[0] if len(runs) == 1 else list(set().union(*runs))
        if first_set:
            # Occurrence arrays ascend: the last entry decides.
            contents = [c for c in contents if sets_of(c)[-1] >= first_set]
            if not contents:
                continue
        distinct += len(contents)
        surfaced.update(*map(sets_of, contents))
        scores = backend.indexed_token_similarities(
            reference.elements[i].index_tokens, records, contents, phi
        )
        # Only the pairs that beat the signature bound are witnesses.
        bound = bounds[i]
        for content, score in zip(contents, scores):
            if score <= bound:
                continue
            sets = sets_of(content)
            if first_set:
                sets = sets[bisect_left(sets, first_set):]
            for set_id in sets:
                best = best_of.setdefault(set_id, {})
                if score > best.get(i, 0.0):
                    best[i] = score

    if first_set:
        surfaced = {set_id for set_id in surfaced if set_id >= first_set}
    surfaced.discard(skip_set)
    if deleted:
        surfaced = surfaced - deleted
    size_drops = 0
    if size_range is not None:
        lo, hi = size_range
        sized = {set_id for set_id in surfaced if lo <= sizes[set_id] <= hi}
        size_drops = len(surfaced) - len(sized)
        surfaced = sized
    return surfaced, scanned, distinct, size_drops


def _probe_postings(
    reference: SetRecord,
    signature: Signature,
    index: InvertedIndex,
    phi: SimilarityFunction,
    gates: tuple,
    backend: ComputeBackend,
    memo: SimilarityMemo | None,
    best_of: dict[int, dict[int, float]],
) -> tuple[set[int], int, int, int]:
    """The edit-kind probe, over the occurrence postings.

    Per reference element the backend merges the signature tokens'
    posting runs (each cut at the *first_set* floor first,
    :func:`_from_floor`) and gates them at run level; the merged keys'
    texts come off the index's forward column, and their scoring is
    deferred so that one ``backend.edit_values`` batch covers the whole
    query (long enough, it runs the lane-parallel Myers kernel).  Only the pairs that beat the element's bound reach *best_of*.

    Returns the surfaced set ids and the funnel counters, per posting
    key: postings scanned, distinct gated keys merged, keys the size
    window dropped.
    """
    first_set, skip_set, deleted, sizes, size_range = gates
    bounds = signature.element_bounds
    posting_keys = index.posting_keys
    if first_set:
        # Decided once per pass: an unfloored probe reads the index's
        # runs exactly as before.
        floor_key = first_set << PACK_SHIFT

        def posting_keys(token: int) -> array:
            return _from_floor(index.posting_keys(token), floor_key)

    elements = index.posting_elements()
    scanned = distinct = size_drops = 0
    surfaced: set[int] = set()
    deferred: list[tuple] = []
    for i, tokens in enumerate(signature.per_element):
        if not tokens:
            continue
        # This element's posting runs, shortest first so short lists
        # seed the merge and prune the accumulated run early.
        runs = [run for run in map(posting_keys, tokens) if len(run)]
        if not runs:
            continue
        runs.sort(key=len)
        kept, n_scanned, n_distinct, n_drops = backend.merge_distinct_postings(
            runs, skip_set, deleted, sizes, size_range
        )
        scanned += n_scanned
        distinct += n_distinct
        size_drops += n_drops
        if not len(kept):
            continue
        surfaced.update(map(rshift, kept, repeat(PACK_SHIFT)))
        # Each distinct candidate text is scored once per reference
        # element -- duplicated texts share the value (the similarity
        # is a pure function of the two strings).
        texts = list(map(_TEXT, map(elements.__getitem__, kept)))
        deferred.append(
            (i, reference.elements[i].text, kept, texts, list(dict.fromkeys(texts)))
        )

    if deferred:
        # One floored-phi task per (reference element, distinct text);
        # the bound lets the banded scalar path bail out early and caps
        # the vector path's certified-rejection band.
        tasks = [
            (text, other, bounds[i])
            for i, text, _, _, distinct_texts in deferred
            for other in distinct_texts
        ]
        memoized = memo is not None and memo.enabled
        values = backend.edit_values(phi, tasks, memo if memoized else None)
        pos = 0
        for i, _, kept, texts, distinct_texts in deferred:
            end = pos + len(distinct_texts)
            score_of = dict(zip(distinct_texts, values[pos:end]))
            pos = end
            # Element i's exact NN value per set, where it beats u_i.
            bound = bounds[i]
            for key, score in zip(kept, map(score_of.__getitem__, texts)):
                if score <= bound:
                    continue
                best = best_of.setdefault(key >> PACK_SHIFT, {})
                if score > best.get(i, 0.0):
                    best[i] = score
    return surfaced, scanned, distinct, size_drops


def _gather_reference(
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
    """The original per-posting probe, kept verbatim as the oracle.

    Walks :class:`~repro.index.inverted.Posting` tuples with per-pair
    set/dict bookkeeping exactly as the pre-columnar implementation
    did; ``tests/test_select_kernel.py`` pins the columnar probe to its
    output bit-for-bit.  The *first_set* floor is one more per-posting
    test here, beside the self-skip it generalises.
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

