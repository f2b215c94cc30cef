"""Shared posting-merge kernels for candidate selection.

Candidate selection (paper Section 5.1, Algorithm 1) probes the
inverted index with every signature token of one reference element and
needs the *distinct* ``(set_id, element_index)`` pairs across those
probes.  The index stores each posting list as a sorted array of packed
int64 keys (:mod:`repro.index.inverted`), so deduplication is a merge
of sorted unique runs -- no per-posting tuples, sets or dict probes.

This module holds the pure-Python half of that kernel, which
:class:`~repro.backends.base.ComputeBackend` runs on every probe too
short for (or without) the numpy merge of
:mod:`repro.backends.numpy_kernels`:

:func:`merge_sorted_unique`
    Count-then-filter k-way merge.  Lists are folded shortest-first
    (the caller already hands them over in ascending posting-length
    order, so short lists seed the merge and the accumulated run grows
    as late as possible); each two-way step *gallops* -- binary-searches
    each key of the shorter run into the longer one and copies the
    untouched spans as slices -- when the length skew makes that win,
    and otherwise drops to a C-level set union + sort, which beats any
    per-element Python loop on balanced runs.

:func:`gate_keys`
    Run-level candidate gates.  Merged keys are grouped into per-set
    runs (one ``bisect`` per distinct set id), so the self-match skip,
    the tombstone skip and the size gate of Section 5 are each decided
    once per candidate *set* instead of once per posting -- and when no
    gate applies at all the input is returned untouched.

Both functions are exact by construction: they only reorder and
deduplicate probe work, never scores, so selection returns
bit-identical candidates on either path.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence, Tuple

from repro.index.inverted import PACK_SHIFT

#: Length skew (longer / shorter run) beyond which the two-way merge
#: gallops instead of taking the set-union path: below this the C-level
#: union is faster, above it O(short * log long) bisects win.
GALLOP_SKEW = 8


def _merge_two(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    """Merge two sorted unique key runs into one sorted unique run."""
    if len(a) > len(b):
        a, b = b, a
    if not len(a):
        return b
    if len(a) * GALLOP_SKEW <= len(b):
        # Galloping path: locate each short-run key in the long run by
        # binary search and copy the untouched long-run spans as slices.
        out: list[int] = []
        pos = 0
        n = len(b)
        for key in a:
            nxt = bisect_left(b, key, pos)
            out.extend(b[pos:nxt])
            if nxt == n or b[nxt] != key:
                out.append(key)
            pos = nxt
        out.extend(b[pos:])
        return out
    # Balanced runs: the C-level union + sort outruns an element-wise
    # Python merge loop.
    union = set(a)
    union.update(b)
    return sorted(union)


def merge_sorted_unique(arrays: Sequence[Sequence[int]]) -> Sequence[int]:
    """Distinct keys across sorted unique *arrays*, as one sorted run.

    When one run dominates everything else combined by
    :data:`GALLOP_SKEW`, the small remainder is unioned and galloped
    into it (O(rest * log dominant) bisects plus slice copies);
    otherwise a single C-level set union across all runs plus one final
    sort wins -- crucially *without* re-sorting a growing accumulator
    per run, which made a pairwise fold quadratic on balanced probes.
    With zero or one input the (shared) input run is returned as-is --
    callers must not mutate the result.
    """
    if not arrays:
        return ()
    if len(arrays) == 1:
        return arrays[0]
    dominant = max(arrays, key=len)
    rest = sum(len(run) for run in arrays) - len(dominant)
    if rest == 0:
        return dominant
    if rest * GALLOP_SKEW <= len(dominant):
        small: set = set()
        for run in arrays:
            if run is not dominant:
                small.update(run)
        return _merge_two(sorted(small), dominant)
    union = set(dominant)
    for run in arrays:
        if run is not dominant:
            union.update(run)
    return sorted(union)


def gate_keys(
    keys: Sequence[int],
    skip_set: Optional[int],
    deleted: frozenset,
    sizes: Sequence[int],
    size_range: Optional[Tuple[float, float]],
) -> Tuple[Sequence[int], int]:
    """Apply the per-set candidate gates to one merged key run.

    Parameters
    ----------
    keys:
        Sorted distinct packed posting keys.
    skip_set / deleted:
        Self-match set id to exclude and the collection's tombstoned
        ids.
    sizes / size_range:
        The index's per-set element counts and the optional
        ``(lo, hi)`` cardinality gate (``None`` disables it).

    Returns
    -------
    ``(kept, size_drops)``: the surviving keys (the input object when
    no gate applies -- zero per-posting overhead on the common path)
    and how many keys the size gate alone dropped.
    """
    if skip_set is None and not deleted and size_range is None:
        return keys, 0
    kept: list[int] = []
    size_drops = 0
    pos = 0
    n = len(keys)
    while pos < n:
        set_id = keys[pos] >> PACK_SHIFT
        end = bisect_left(keys, (set_id + 1) << PACK_SHIFT, pos + 1)
        if set_id == skip_set or set_id in deleted:
            pass
        elif size_range is not None:
            size = sizes[set_id]
            if size_range[0] <= size <= size_range[1]:
                kept.extend(keys[pos:end])
            else:
                size_drops += end - pos
        else:
            kept.extend(keys[pos:end])
        pos = end
    return kept, size_drops


def merge_distinct_postings_python(
    key_arrays: Sequence[Sequence[int]],
    skip_set: Optional[int],
    deleted: frozenset,
    sizes: Sequence[int],
    size_range: Optional[Tuple[float, float]],
) -> Tuple[Sequence[int], int, int, int]:
    """The full pure-Python selection merge: dedup then gate.

    Returns ``(kept_keys, postings_scanned, distinct_pairs,
    size_gate_drops)`` -- the select-funnel accounting both merge paths
    report identically.
    """
    scanned = sum(len(run) for run in key_arrays)
    merged = merge_sorted_unique(key_arrays)
    distinct = len(merged)
    kept, size_drops = gate_keys(merged, skip_set, deleted, sizes, size_range)
    return kept, scanned, distinct, size_drops
