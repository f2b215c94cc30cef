"""The numpy compute backend.

Importing this module requires numpy (the registry imports it lazily
and falls back to the Python backend when the import fails).  The
kernels vectorise the arithmetic the pipeline runs per candidate batch:
size and threshold masks, the check-filter bound aggregation, the
token-similarity formulas, the selection merge and the edit kernels.

Candidate selection's token scoring and witness test
(``indexed_token_similarities`` / ``witnesses``) and verification
(``weight_matrix`` / ``assignment_score``) are deliberately *not*
overridden: select scores a handful of distinct contents per call and
verification solves a few small components of a sparse matrix, and at
those sizes the inherited scalar code beats lifting the work into
arrays.  Verification's one array step here is :meth:`grid_columns`,
which lists the positive cells of an ndarray edit grid.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import ComputeBackend, fill_edit_grid, lookup_edit_grid
from repro.backends.select import merge_distinct_postings_python
from repro.core.constants import EPSILON
from repro.index.inverted import PACK_SHIFT
from repro.sim.functions import SimilarityFunction, SimilarityKind


def _formula_scores(
    kind: SimilarityKind,
    probe_size: float,
    sizes: np.ndarray,
    inter: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Closed-form ``phi_alpha`` scores from intersection counts.

    The same operations on the same integers as the scalar functions
    in :mod:`repro.sim.functions`, so the floats are bit-identical.
    """
    if probe_size == 0.0:
        # Matches the scalar functions: sim(empty, empty) == 1.0.
        scores = np.where(sizes == 0.0, 1.0, 0.0)
    else:
        if kind is SimilarityKind.JACCARD:
            denominator = probe_size + sizes - inter
        elif kind is SimilarityKind.DICE:
            inter = 2.0 * inter
            denominator = probe_size + sizes
        elif kind is SimilarityKind.COSINE:
            denominator = np.sqrt(probe_size * sizes)
        elif kind is SimilarityKind.OVERLAP:
            denominator = np.minimum(probe_size, sizes)
        else:
            raise ValueError(
                f"token similarity formulas require a token-based kind, got {kind}"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.where(denominator > 0.0, inter / denominator, 0.0)
    if alpha > 0.0:
        scores = np.where(scores >= alpha, scores, 0.0)
    return scores


def _token_scores(
    probe: frozenset[int],
    targets: Sequence[frozenset[int]],
    phi: SimilarityFunction,
) -> np.ndarray:
    """``phi_alpha(probe, target)`` per target, as a float64 array.

    The counts are taken by C-level ``map`` passes (no generator frame
    per target), the formula by :func:`_formula_scores`.
    """
    count = len(targets)
    inter = np.fromiter(
        map(len, map(probe.__and__, targets)), dtype=np.float64, count=count
    )
    sizes = np.fromiter(map(len, targets), dtype=np.float64, count=count)
    return _formula_scores(phi.kind, float(len(probe)), sizes, inter, phi.alpha)


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


class NumpyBackend(ComputeBackend):
    """Vectorised kernels; bit-identical to :class:`PythonBackend`."""

    name = "numpy"

    def __init__(self) -> None:
        #: Minimum postings scanned per probe before the vectorised
        #: selection merge dispatches; smaller probes take the shared
        #: pure-Python galloping merge, whose constant factors win
        #: before array lifting can amortise.
        self.select_min_postings = 64
        #: Minimum number of pairs to score before the lane-parallel
        #: Myers kernel runs -- tasks of an :meth:`edit_values` batch,
        #: cells of an :meth:`edit_grid` the memo does not hold.  Below
        #: it the scalar banded path wins: a lane batch costs a fixed
        #: ~20 array dispatches per text character however few lanes
        #: it has (measurements: docs/parameters.md).
        self.edit_batch_min_tasks = 64

    # -- columnar kernels ----------------------------------------------
    def size_filter_indices(
        self, sizes: Sequence[int], lo: float, hi: float
    ) -> list[int]:
        """Indices k with ``lo <= sizes[k] <= hi`` via one vector mask."""
        if not len(sizes):
            return []
        array = np.asarray(sizes, dtype=np.float64)
        return np.flatnonzero((array >= lo) & (array <= hi)).tolist()

    def threshold_indices(
        self, values: Sequence[float], cutoff: float
    ) -> list[int]:
        """Indices k with ``values[k] >= cutoff`` via one vector mask."""
        if not len(values):
            return []
        return np.flatnonzero(np.asarray(values, dtype=np.float64) >= cutoff).tolist()

    def add_scalar(self, scalar: float, values: Sequence[float]) -> list[float]:
        """Elementwise ``scalar + values`` as one vector add."""
        if not len(values):
            return []
        return (scalar + np.asarray(values, dtype=np.float64)).tolist()

    # -- index-traversal kernels ---------------------------------------
    def merge_distinct_postings(
        self,
        key_arrays: Sequence[Sequence[int]],
        skip_set: Optional[int],
        deleted: frozenset,
        sizes: Sequence[int],
        size_range: Optional[Tuple[float, float]],
    ) -> Tuple[Sequence[int], int, int, int]:
        """Vectorised selection merge over packed posting arrays.

        Concatenates the probed tokens' int64 arrays (zero-copy
        ``frombuffer`` views), deduplicates with one ``np.unique``
        sorted run, and applies the self-match / tombstone / size gates
        as boolean masks -- per merged *pair*, not per scanned posting.
        Probes under :attr:`select_min_postings` postings fall back to
        the shared pure-Python merge, which is faster at that scale.
        Keys and funnel counts are bit-identical to the reference
        implementation.
        """
        scanned = sum(len(run) for run in key_arrays)
        if scanned < self.select_min_postings:
            return merge_distinct_postings_python(
                key_arrays, skip_set, deleted, sizes, size_range
            )
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

    # -- similarity kernels --------------------------------------------
    def edit_values(self, phi, tasks, memo=None) -> list[float]:
        """Batched floored ``phi_alpha`` via the lane-parallel Myers kernel.

        The ragged task list is interned into distinct patterns and
        distinct texts plus one index pair per task, then scored by
        :meth:`_edit_lanes`; tasks the lanes cannot take, and batches
        under :attr:`edit_batch_min_tasks`, use the scalar
        implementation.  The cross-stage memo is bypassed on the vector
        path (recomputing is cheaper than 2 dict round-trips per task);
        values are unaffected because the similarity is a pure function
        of the strings.
        """
        if not tasks or len(tasks) < self.edit_batch_min_tasks:
            return super().edit_values(phi, tasks, memo=memo)
        xs, ys, floors = zip(*tasks)
        patterns = list(dict.fromkeys(xs))
        texts = list(dict.fromkeys(ys))
        values, scalar = self._edit_lanes(
            phi,
            patterns,
            texts,
            _positions(patterns, xs),
            _positions(texts, ys),
            np.array(floors, dtype=np.float64),
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

    def edit_grid(self, phi, patterns, texts, memo=None) -> np.ndarray:
        """The edit grid as an ndarray; unknown cells through the Myers lanes.

        Memo-first like the default.  The dispatch rule is the one
        :meth:`edit_values` has, applied to the cells the memo does not
        hold: at least :attr:`edit_batch_min_tasks` of them (and a
        positive alpha, without which no cell has a band) are offered
        to :meth:`_edit_lanes` in one batch and stored back; whatever
        is still unknown after that takes the default's scalar fill.
        """
        rows, unknown = lookup_edit_grid(patterns, texts, memo)
        if unknown >= self.edit_batch_min_tasks and phi.alpha > 0.0:
            # None (unknown) converts to nan; no phi value is nan.
            unknown_at = np.isnan(
                np.array(rows, dtype=np.float64).reshape(len(patterns), len(texts))
            )
            pi, ti = np.nonzero(unknown_at)
            values, scalar = self._edit_lanes(phi, patterns, texts, pi, ti, 0.0)
            values[scalar] = np.nan
            store = memo.store if memo is not None and memo.enabled else None
            for i, j, value in zip(pi.tolist(), ti.tolist(), values.tolist()):
                if value == value:  # not nan: the lanes scored this cell
                    rows[i][j] = value
                    if store is not None:
                        store(patterns[i], texts[j], value)
        fill_edit_grid(phi, patterns, texts, rows, memo)
        return np.array(rows, dtype=np.float64).reshape(len(patterns), len(texts))

    def _edit_lanes(
        self,
        phi: SimilarityFunction,
        patterns: Sequence[str],
        texts: Sequence[str],
        pi: np.ndarray,
        ti: np.ndarray,
        floors,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Floored ``phi_alpha(patterns[pi[k]], texts[ti[k]])`` per cell k.

        Returns the values and the indices of the cells left for the
        caller's scalar path (value 0.0 here): non-ASCII strings,
        patterns that do not fit one 64-bit word (length 0 or > 64) and
        cells whose cutoff ``max(floor, alpha)`` is 0.  *floors* is one
        float per cell, or a single float for all of them.

        Set-up is per distinct string -- lengths, ASCII flags, one
        occurrence-bitmask row per pattern, one row of byte codes per
        text -- and per cell only as array expressions: the band and
        the closing score are :meth:`SimilarityFunction.edit_band` and
        :meth:`~SimilarityFunction.edit_score_from_distance` written
        with the same IEEE operations in the same order, so every float
        equals the scalar path's.  Cells the length gap already rejects
        score 0.0 without a lane.  Each remaining cell is one uint64
        lane of Myers bit-vector state (``vp``, ``vn``) -- the
        recurrence of :func:`repro.sim.myers.myers_distance` -- and
        every step consumes one character column across all lanes.
        Lanes are sorted by text length (longest first) so finished
        lanes simply fall out of the active prefix with their last
        column intact, from which the distance is read at the end.
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
        if count == 0 or count < self.edit_batch_min_tasks:
            # Too few Myers runs to amortise the per-step dispatch (the
            # callers' own check only bounded the count from above).
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
        # One NUL-padded row of byte codes per text (cut at the
        # longest lane; longer texts have none), gathered by lane
        # and laid out step-major.
        codes = np.frombuffer(
            b"".join(
                (y.encode("ascii") if ok else b"")[:max_len].ljust(max_len, b"\0")
                for y, ok in zip(texts, ok_t.tolist())
            ),
            dtype=np.uint8,
        ).reshape(len(texts), max_len)
        codes = np.ascontiguousarray(codes[ti[lanes]].T)
        # n is descending, so the lane count at step j is the
        # number of texts longer than j.
        active = count - np.searchsorted(
            n[::-1], np.arange(max_len), side="right"
        )
        # uint64 arithmetic wraps, and neither the carry nor the
        # shifts move a bit downwards, so the garbage a pattern
        # shorter than 64 leaves above its top bit is never read.
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
        # A lane's last column holds the vertical deltas below
        # D[0][n] = n: +1 per vp bit, -1 per vn bit.
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

    def token_similarities(
        self,
        probe: frozenset[int],
        targets: Sequence[frozenset[int]],
        phi: SimilarityFunction,
    ) -> list[float]:
        """Vectorised ``phi_alpha(probe, target)`` per target.

        Computes intersection counts once, then applies the kind's
        closed-form formula and the alpha cut as array expressions;
        results equal the scalar functions bit for bit.
        """
        return _token_scores(probe, targets, phi).tolist()

    # -- verification kernels ------------------------------------------
    def grid_columns(self, grid: np.ndarray) -> list[list[tuple[int, float]]]:
        """Per column of an ndarray edit grid, its positive cells."""
        columns: list[list[tuple[int, float]]] = [[] for _ in range(grid.shape[1])]
        by_column = grid.T
        cols, rows = np.nonzero(by_column)
        for j, i, weight in zip(
            cols.tolist(), rows.tolist(), by_column[cols, rows].tolist()
        ):
            columns[j].append((i, weight))
        return columns
