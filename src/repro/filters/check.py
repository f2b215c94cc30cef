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

The probe's output is the witnessed rows: :func:`select_columns`
returns every gated surfaced set id and, for the few sets among them
that witnessed something, their ``best`` maps and gains.
:func:`check_columns` is the check filter proper, the one rule both the
pipeline's check stage and the row-per-candidate wrapper
:func:`select_and_check` (explain-style callers, baselines, tests) run.
Unless the residual alone reaches the cutoff, a set that witnessed
nothing cannot survive, so the check reads the witnessed rows only.

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
sets -- skipping, unscored, the contents whose overlap bound rules
them out (:func:`_may_witness`).  Every merged content's sets are
surfaced; the floor, self-match, tombstone and size gates run once
per surfaced *set* at the end of the probe.

Either way, as in Algorithm 1, a surfaced set costs one set id until
it proves interesting: only the pairs whose score beats ``u_i`` (the
witnesses) get a ``best`` entry, and only the sets holding one become
witnessed rows.

The probe is property-tested against the original per-posting loop
(``gather_reference`` in ``tests/strategies/checks.py``).  Both record,
per (reference element, candidate set), the maximum of the same
``phi_alpha`` values in the same (reference-element, then
empty-element) phase order, so the rows -- including ``best``-map
insertion order, which downstream float summation observes, and the
gains summed in that order -- are bit-identical.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from collections import Counter
from itertools import chain, compress, repeat
from operator import attrgetter, itemgetter, rshift
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
_LAST = itemgetter(-1)

#: Fewest merged contents for which the overlap bound (:func:`_may_witness`)
#: pays for itself: ``serve_mixed_wal`` merges about 5 per element and the
#: bound rules out a quarter, ``discover_jaccard`` about 38 and 3 in 4.
_BOUND_MIN_CONTENTS = 16


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


#: The witnessed rows, parallel and ascending by set id:
#: ``(set_ids, gains, best)``.
Witnessed = Tuple[list[int], list[float], list[dict[int, float]]]

#: :func:`check_columns`' output, parallel and ascending by set id:
#: ``(set_ids, gains, estimates, best)``.
CheckedColumns = Tuple[list[int], list[float], list[float], list[dict[int, float]]]


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
) -> tuple[list[int], Witnessed]:
    """Algorithm 1's probe: the surfaced set ids and the witnessed rows.

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
    ``(surfaced, (set_ids, gains, best))``: the gated surfaced set ids,
    then those that witnessed a pair with their improvement over the
    residual (``sum_i best_i - u_i``, ``+=`` in map order) and maps;
    both ascending.  The check filter proper is :func:`check_columns`.
    """
    if backend is None:
        backend = get_backend()
    with span("select.kernel") as sp:
        return _gather_packed(
            reference, signature, index, phi, collection, size_range,
            skip_set, backend, memo, pass_stats, sp, first_set,
        )


def check_columns(
    surfaced: list[int],
    witnessed: Witnessed,
    residual: float,
    cutoff: float,
    apply_check: bool = True,
) -> CheckedColumns:
    """The check filter (Section 5.1) over :func:`select_columns`' output.

    A candidate's score is at most the signature *residual* plus its
    witnessed gain; with *apply_check* the candidates whose bound falls
    below *cutoff* are pruned and the others carry it as their estimate.
    Below ``residual >= cutoff`` a set that witnessed nothing cannot
    survive, so only the witnessed rows are read.  Otherwise (the
    schemes keep the residual by subtraction, so it may land on either
    side in the last bit), or unchecked (the NOFILTER configurations of
    Figure 6, estimates ``inf``), every surfaced set is a row, an
    unwitnessed one with a zero gain and an empty map of its own.
    """
    set_ids, gains, best = witnessed
    if not apply_check or residual >= cutoff:
        gain_of = dict(zip(set_ids, gains))
        best_of = dict(zip(set_ids, best))
        set_ids = surfaced
        gains = list(map(gain_of.get, surfaced, repeat(0.0)))
        best = [best_of[s] if s in best_of else {} for s in surfaced]
        if not apply_check:
            return set_ids, gains, [float("inf")] * len(set_ids), best
    keep = [k for k, gain in enumerate(gains) if residual + gain >= cutoff]
    return (
        [set_ids[k] for k in keep],
        [gains[k] for k in keep],
        [residual + gains[k] for k in keep],
        [best[k] for k in keep],
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
    minus the discovery-only candidate floor) and
    :func:`check_columns` (cutoff *theta*) for explain-style callers,
    baselines and tests; the pipeline consumes the columns directly.
    With *apply_check* the candidates whose estimate cannot reach
    *theta* are pruned; without it they are only gathered (the NOFILTER
    configurations of Figure 6), still carrying their witnessed
    similarities for downstream reuse.

    Returns
    -------
    Candidate infos for every set that survived; ordering follows set id.
    """
    surfaced, witnessed = select_columns(
        reference, signature, index, phi, collection, size_range=size_range,
        skip_set=skip_set, backend=backend, memo=memo, pass_stats=pass_stats,
    )
    # The estimate is sound for every scheme because each u_i
    # individually bounds the contribution of r_i.
    set_ids, _, _, best = check_columns(
        surfaced, witnessed, sum(signature.element_bounds), theta, apply_check
    )
    return list(map(CandidateInfo, set_ids, best))


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
) -> tuple[list[int], Witnessed]:
    """The columnar probe: index runs in, surfaced ids and witnessed rows out.

    Surfaces the same candidates with the same witnessed maps as the
    per-posting oracle -- same scores, same witness order -- without an
    object per surfaced set.  Token kinds probe the index's content
    table (:func:`_probe_contents`), edit kinds its occurrence postings
    and forward column (:func:`_probe_postings`); the empty-element
    phase and the row assembly are common.
    """
    bounds = signature.element_bounds
    # A fully open size window (what the pipeline passes when the size
    # filter is disabled) is no gate at all: normalise it away here.
    if size_range is not None and tuple(size_range) == (-float("inf"), float("inf")):
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
    empty_ref = [i for i, e in enumerate(reference.elements) if not e.index_tokens]
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
    # A token-kind witness may have been gated out: intersect first.
    witnessed = sorted(surfaced.intersection(best_of))
    maps = list(map(best_of.__getitem__, witnessed))
    gains = []
    for best in maps:
        total = 0.0
        for i, score in best.items():
            total += score - bounds[i]
        gains.append(total)
    return sorted(surfaced), (witnessed, gains, maps)


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

    Per reference element: count the signature tokens' content-id runs
    (unread for a token held only below the *first_set* floor) per
    content, drop the contents whose last set lies below the floor,
    score once each content that may beat the element's bound
    (:func:`_may_witness`) and expand only the witnesses to their sets
    (from the floor on), into *best_of*.  Every merged content's sets
    are surfaced by one C-level ``set.update``; the floor, self-match,
    tombstone and size-window gates then run once per surfaced *set*.

    A witnessed maximum does not depend on the order its candidates
    are visited in, and a content's score is the closed form on the
    same three sizes as any of its occurrences', so the maps equal the
    per-occurrence probe's bit for bit.  A token unread at the floor
    only leaves out contents the floor drops anyway, so the counts of
    the contents kept are exact.

    Returns the gated set ids and the funnel counters: content-list
    entries read, distinct (reference element, content) pairs merged,
    sets the size window dropped.
    """
    first_set, skip_set, deleted, sizes, size_range = gates
    bounds = signature.element_bounds
    content_ids = index.content_ids
    records = index.content_records()
    sets_of = index.content_sets().__getitem__
    content_sizes = index.content_sizes()
    if first_set:
        # Posting runs ascend: a token whose last posting lies below
        # the floor (so every content holding it) is never read.
        floor_key = first_set << PACK_SHIFT
        at_floor = first_set.__le__

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
        # c_sig per content; one run holds each of its contents once.
        signed = None if len(runs) == 1 else Counter(chain.from_iterable(runs))
        contents = runs[0] if signed is None else list(signed)
        if first_set:
            # Occurrence arrays ascend: the last set decides.
            last = map(_LAST, map(sets_of, contents))
            contents = list(compress(contents, map(at_floor, last)))
            if not contents:
                continue
        distinct += len(contents)
        surfaced.update(*map(sets_of, contents))
        probe = reference.elements[i].index_tokens
        bound = bounds[i]
        # The schemes draw l_i from r_i; a signature that does not
        # (built by hand) gets no bound and scores every content.
        if len(contents) >= _BOUND_MIN_CONTENTS and tokens <= probe:
            contents = _may_witness(
                contents, signed, content_sizes, len(probe),
                len(probe) - len(tokens), bound, phi,
            )
        scores = backend.indexed_token_similarities(
            probe, records, contents, phi
        )
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


def _may_witness(
    contents, signed, content_sizes, size, unsigned, bound, phi
) -> list[int]:
    """The *contents* whose overlap bound still lets them beat *bound*.

    A content holding ``c_sig`` of the element's signature tokens
    (``signed[c]``; 1 each when *signed* is ``None``) shares at most
    ``min(c_sig + unsigned, |c|, size)`` of the element's *size* tokens,
    *unsigned* of which the signature left out.  The closed form
    :meth:`~repro.sim.functions.SimilarityFunction.tokens_from_counts`
    is monotone in the overlap for every token kind (correctly rounded
    division keeps that in floats), so a content whose bound is
    ``<= bound`` cannot be a witness.  The verdict is taken once per
    distinct ``(c_sig, |c|)`` and applied by C-level ``compress``.
    """
    shapes = list(zip(
        repeat(1) if signed is None else map(signed.__getitem__, contents),
        map(content_sizes.__getitem__, contents),
    ))
    score = phi.tokens_from_counts
    verdict = {
        (c_sig, c): score(size, c, min(c_sig + unsigned, c, size)) > bound
        for c_sig, c in set(shapes)
    }
    return list(compress(contents, map(verdict.__getitem__, shapes)))


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
    query (long enough, it runs the lane-parallel Myers kernel).  Only
    the pairs that beat the element's bound reach *best_of*.

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
