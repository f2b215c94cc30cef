"""The numpy kernels: the three batch shapes where arrays beat scalar code.

The only module in :mod:`repro` that imports numpy.
:mod:`repro.backends.base` imports it once, inside ``try/except
ImportError``; without numpy every caller runs its scalar path.  Each
kernel is handed a batch only once the batch reaches the gate
:class:`~repro.backends.base.ComputeBackend` keeps for it, because below
that the array set-up costs more than it saves (measurements:
``docs/parameters.md``, "Array kernels"):

:func:`merge_distinct_postings`
    Candidate selection's posting merge as one ``np.unique`` sorted run
    plus boolean gate masks (``select_min_postings`` scanned keys).
:func:`edit_values` / :func:`fill_grid_lanes`
    The lane-parallel Myers bit-vector kernel (:func:`edit_lanes`)
    behind the batched edit similarities (``edit_batch_min_tasks``
    pairs).
:func:`nearest_in_sets`
    The NN filter's token-kind group walk as ``searchsorted`` range
    gathers, one sort-and-count and the kind's closed form
    (``nn_group_min_sets`` set ids).

Every key, count and float equals the scalar path's bit for bit.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.constants import EPSILON
from repro.index.inverted import PACK_MASK, PACK_SHIFT, InvertedIndex
from repro.sim.functions import SimilarityFunction, SimilarityKind
from repro.sim.memo import SimilarityMemo

#: Set bits per byte value (``np.bitwise_count`` needs numpy >= 2).
_BYTE_BITS = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.int64)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per element of a contiguous uint64 array."""
    return _BYTE_BITS[words.view(np.uint8).reshape(-1, 8)].sum(axis=1)


def _positions(distinct: Sequence[str], items: Sequence[str]) -> np.ndarray:
    """For each of *items*, its index in the duplicate-free *distinct*."""
    position = dict(zip(distinct, range(len(distinct))))
    return np.fromiter(
        map(position.__getitem__, items), dtype=np.intp, count=len(items)
    )


def merge_distinct_postings(
    key_arrays: Sequence[Sequence[int]],
    skip_set: Optional[int],
    deleted: frozenset,
    sizes: Sequence[int],
    size_range: Optional[Tuple[float, float]],
    scanned: int,
) -> Tuple[Sequence[int], int, int, int]:
    """Vectorised selection merge over packed posting arrays.

    Concatenates the probed tokens' int64 arrays (zero-copy
    ``frombuffer`` views), deduplicates with one ``np.unique`` sorted
    run, and applies the self-match / tombstone / size gates as boolean
    masks -- per merged *pair*, not per scanned posting.  *scanned* is
    the caller's count of keys across *key_arrays*.  Keys and funnel
    counts equal
    :func:`~repro.backends.select.merge_distinct_postings_python`'s.
    """
    views = [
        np.frombuffer(run, dtype=np.int64)
        for run in key_arrays
        if len(run)
    ]
    if not views:
        merged = np.empty(0, dtype=np.int64)
    elif len(views) == 1:
        # A single posting array is already sorted and unique.
        merged = views[0]
    else:
        merged = np.unique(np.concatenate(views))
    distinct = int(merged.size)
    size_drops = 0
    mask = None
    if skip_set is not None or deleted or size_range is not None:
        set_ids = merged >> PACK_SHIFT
        if skip_set is not None:
            mask = set_ids != skip_set
        if deleted:
            alive = ~np.isin(
                set_ids,
                np.fromiter(deleted, dtype=np.int64, count=len(deleted)),
            )
            mask = alive if mask is None else mask & alive
        if size_range is not None:
            gated = np.frombuffer(sizes, dtype=np.int64)[set_ids]
            size_ok = (gated >= size_range[0]) & (gated <= size_range[1])
            if mask is None:
                size_drops = distinct - int(np.count_nonzero(size_ok))
                mask = size_ok
            else:
                size_drops = int(np.count_nonzero(mask & ~size_ok))
                mask &= size_ok
    kept = merged if mask is None else merged[mask]
    return kept.tolist(), scanned, distinct, size_drops


def nearest_in_sets(
    probe: frozenset[int],
    set_ids: Sequence[int],
    index: InvertedIndex,
    phi: SimilarityFunction,
) -> dict[int, float]:
    """Token-kind NN values of *probe* in each of *set_ids*, as arrays.

    Per probe token, the posting run (a zero-copy ``frombuffer`` view)
    is ``searchsorted`` at every deduplicated set's ``[s << 32, (s + 1)
    << 32)`` bounds and the ranges gathered; one sort of the keys
    gathered from several runs and a run-length count give ``|probe &
    s_j|`` per key, the index's token count column ``|s_j|``.  The closed form is
    :meth:`SimilarityFunction.tokens_from_counts` written elementwise
    with the same float64 operations on the same exact integers, then
    the alpha threshold, and ``np.maximum.reduceat`` takes each set's
    best.  Returns what
    :meth:`~repro.backends.base.ComputeBackend.nearest_in_sets`'s
    scalar walk does, float for float.
    """
    # A repeated id would gather its range twice and double ``shared``.
    lows = np.array(list(dict.fromkeys(set_ids)), dtype=np.int64) << PACK_SHIFT
    bounds = np.empty(2 * len(lows), dtype=np.int64)
    bounds[0::2] = lows
    bounds[1::2] = lows + (1 << PACK_SHIFT)
    gathered = []
    for token in probe:
        postings = index.posting_keys(token)
        if not postings:
            continue
        run = np.frombuffer(postings, dtype=np.int64)
        edges = run.searchsorted(bounds)
        starts = edges[0::2]
        lengths = edges[1::2] - starts
        ends = lengths.cumsum()
        total = int(ends[-1])
        if total:
            # Position k of the gather reads run[starts[r] + k - first
            # position of range r].
            shift = np.repeat(starts - (ends - lengths), lengths)
            gathered.append(run[shift + np.arange(total)])
    if not gathered:
        return {}
    if len(gathered) == 1:
        # Ranges of one sorted run: ascending and distinct already.
        keys = gathered[0]
        shared = np.ones(keys.size, dtype=np.int64)
    else:
        found = np.concatenate(gathered)
        found.sort()
        first = np.flatnonzero(np.concatenate(([True], found[1:] != found[:-1])))
        keys = found[first]
        shared = np.diff(first, append=found.size)
    owner = keys >> PACK_SHIFT
    offsets, counts = index.token_count_column()
    other = np.frombuffer(counts, dtype=np.int64)[
        np.frombuffer(offsets, dtype=np.int64)[owner] + (keys & PACK_MASK)
    ]
    size = len(probe)
    kind = phi.kind
    if kind is SimilarityKind.JACCARD:
        score = shared / (size + other - shared)
    elif kind is SimilarityKind.DICE:
        score = 2.0 * shared / (size + other)
    elif kind is SimilarityKind.COSINE:
        score = shared / np.sqrt(size * other)
    elif kind is SimilarityKind.OVERLAP:
        score = shared / np.minimum(size, other)
    else:
        raise ValueError("nearest_in_sets requires a token-based kind")
    score[score < phi.alpha] = 0.0
    set_first = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
    best = np.maximum.reduceat(score, set_first)
    positive = best > 0.0
    return dict(zip(owner[set_first][positive].tolist(), best[positive].tolist()))


def edit_values(
    phi: SimilarityFunction,
    tasks: Sequence[Tuple[str, str, float]],
    memo: SimilarityMemo | None,
    min_lanes: int,
) -> list[float]:
    """Floored ``phi_alpha(x, y)`` per ``(x, y, floor)`` task, in lanes.

    The ragged task list is interned into distinct patterns and distinct
    texts plus one index pair per task, then scored by
    :func:`edit_lanes`; the tasks the lanes leave take the scalar path
    (through *memo* when it is enabled).  The memo is bypassed for the
    lanes -- recomputing is cheaper than two dict round-trips per task
    -- which shifts its hit counters, never a value.
    """
    xs, ys, floors = zip(*tasks)
    patterns = list(dict.fromkeys(xs))
    texts = list(dict.fromkeys(ys))
    values, scalar = edit_lanes(
        phi,
        patterns,
        texts,
        _positions(patterns, xs),
        _positions(texts, ys),
        np.array(floors, dtype=np.float64),
        min_lanes,
    )
    values = values.tolist()
    memoized = memo is not None and memo.enabled
    for k in scalar.tolist():
        x, y, floor = tasks[k]
        if memoized:
            values[k] = memo.edit_value(phi, x, y, floor)
        else:
            values[k] = phi.edit_at_least(x, y, floor)
    return values


def fill_grid_lanes(
    phi: SimilarityFunction,
    patterns: Sequence[str],
    texts: Sequence[str],
    rows: list[list],
    memo: SimilarityMemo | None,
    min_lanes: int,
) -> None:
    """Score the unknown (``None``) cells of an edit grid in lanes.

    *rows* is the memo-first grid of
    :meth:`~repro.backends.base.ComputeBackend.edit_grid`; every cell
    the lanes score is written into it and stored in *memo*.  The cells
    the lanes leave stay ``None`` for the caller's scalar fill.
    """
    # None (unknown) converts to nan; no phi value is nan.
    unknown_at = np.isnan(
        np.array(rows, dtype=np.float64).reshape(len(patterns), len(texts))
    )
    pi, ti = np.nonzero(unknown_at)
    values, scalar = edit_lanes(phi, patterns, texts, pi, ti, 0.0, min_lanes)
    values[scalar] = np.nan
    store = memo.store if memo is not None and memo.enabled else None
    for i, j, value in zip(pi.tolist(), ti.tolist(), values.tolist()):
        if value == value:  # not nan: the lanes scored this cell
            rows[i][j] = value
            if store is not None:
                store(patterns[i], texts[j], value)


def edit_lanes(
    phi: SimilarityFunction,
    patterns: Sequence[str],
    texts: Sequence[str],
    pi: np.ndarray,
    ti: np.ndarray,
    floors,
    min_lanes: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Floored ``phi_alpha(patterns[pi[k]], texts[ti[k]])`` per cell k.

    Returns the values and the indices of the cells left for the
    caller's scalar path (value 0.0 here): non-ASCII strings, patterns
    that do not fit one 64-bit word (length 0 or > 64), cells whose
    cutoff ``max(floor, alpha)`` is 0, and every cell when fewer than
    *min_lanes* survive the length-gap reject.  *floors* is one float
    per cell, or a single float for all of them.

    Set-up is per distinct string -- lengths, ASCII flags, one
    occurrence-bitmask row per pattern, one row of byte codes per text
    -- and per cell only as array expressions: the band and the closing
    score are :meth:`SimilarityFunction.edit_band` and
    :meth:`~SimilarityFunction.edit_score_from_distance` written with
    the same IEEE operations in the same order, so every float equals
    the scalar path's.  Cells the length gap already rejects score 0.0
    without a lane.  Each remaining cell is one uint64 lane of Myers
    bit-vector state (``vp``, ``vn``) -- the recurrence of
    :func:`repro.sim.myers.myers_distance` -- and every step consumes
    one character column across all lanes.  Lanes are sorted by text
    length (longest first) so finished lanes simply fall out of the
    active prefix with their last column intact, from which the
    distance is read at the end.
    """
    alpha = phi.alpha
    eds = phi.kind is SimilarityKind.EDS
    len_p = np.fromiter(map(len, patterns), dtype=np.int64, count=len(patterns))
    len_t = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    ok_p = np.fromiter(
        (0 < len(x) <= 64 and x.isascii() for x in patterns),
        dtype=bool,
        count=len(patterns),
    )
    ok_t = np.fromiter(
        map(str.isascii, texts), dtype=bool, count=len(texts)
    )
    cutoff = np.maximum(floors, alpha)
    vectorizable = ok_p[pi] & ok_t[ti] & (cutoff > 0.0)
    scalar = np.flatnonzero(~vectorizable)
    values = np.zeros(len(pi))
    # edit_band, then the length-gap reject of levenshtein_within.
    lx = len_p[pi]
    ly = len_t[ti]
    if eds:
        band = (1.0 - cutoff) * (lx + ly) / (1.0 + cutoff) + EPSILON
    else:
        band = (1.0 - cutoff) * np.maximum(lx, ly) + EPSILON
    band = band.astype(np.int64)
    lanes = np.flatnonzero(vectorizable & (np.abs(lx - ly) <= band))
    count = len(lanes)
    if count == 0 or count < min_lanes:
        # Too few Myers runs to amortise the per-step dispatch (the
        # callers' own gate only bounded the count from above).
        return values, np.concatenate((scalar, lanes))
    # Longest texts first: the active lanes are always a prefix.
    lanes = lanes[np.argsort(-ly[lanes], kind="stable")]
    row = pi[lanes]
    m = lx[lanes]
    n = ly[lanes]
    max_len = int(n[0])
    one = np.uint64(1)
    high = one << (m - 1).astype(np.uint64)
    mask = high | (high - one)
    vp = mask.copy()
    vn = np.zeros(count, dtype=np.uint64)
    # One occurrence-bitmask row per pattern the lanes can take.
    table_rows = []
    for x, ok in zip(patterns, ok_p.tolist()):
        masks = [0] * 128
        if ok:
            bit = 1
            for ch in x:
                masks[ord(ch)] |= bit
                bit <<= 1
        table_rows.append(masks)
    eq_table = np.array(table_rows, dtype=np.uint64).ravel()
    eq_row = row * 128
    # One NUL-padded row of byte codes per text (cut at the longest
    # lane; longer texts have none), gathered by lane and laid out
    # step-major.
    codes = np.frombuffer(
        b"".join(
            (y.encode("ascii") if ok else b"")[:max_len].ljust(max_len, b"\0")
            for y, ok in zip(texts, ok_t.tolist())
        ),
        dtype=np.uint8,
    ).reshape(len(texts), max_len)
    codes = np.ascontiguousarray(codes[ti[lanes]].T)
    # n is descending, so the lane count at step j is the number of
    # texts longer than j.
    active = count - np.searchsorted(n[::-1], np.arange(max_len), side="right")
    # uint64 arithmetic wraps, and neither the carry nor the shifts move
    # a bit downwards, so the garbage a pattern shorter than 64 leaves
    # above its top bit is never read.
    for j, live in enumerate(active.tolist()):
        vp_n = vp[:live]
        vn_n = vn[:live]
        eq = eq_table[eq_row[:live] + codes[j, :live]]
        d0 = (((eq & vp_n) + vp_n) ^ vp_n) | eq | vn_n
        hp = vn_n | ~(d0 | vp_n)
        hn = d0 & vp_n
        hp = (hp << one) | one
        hn = hn << one
        np.bitwise_or(hn, ~(d0 | hp), out=vp_n)
        np.bitwise_and(d0, hp, out=vn_n)
    # A lane's last column holds the vertical deltas below D[0][n] = n:
    # +1 per vp bit, -1 per vn bit.
    distance = n + _popcount(vp & mask) - _popcount(vn & mask)
    # edit_score_from_distance, zeroed beyond the band.
    if eds:
        score = 1.0 - 2.0 * distance / (m + n + distance)
    else:
        score = 1.0 - distance / np.maximum(m, n)
    floor = floors[lanes] if isinstance(floors, np.ndarray) else floors
    keep = (distance <= band[lanes]) & (score >= floor) & (score >= alpha)
    values[lanes] = np.where(keep, score, 0.0)
    return values, scalar
