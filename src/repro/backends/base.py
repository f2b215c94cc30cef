"""The compute-backend interface and the shared edit-grid helpers.

A :class:`ComputeBackend` supplies the numeric kernels the staged query
pipeline (:mod:`repro.pipeline`) is built on: columnar filtering of
candidate batches, batched element-similarity evaluation, and the
maximum-weight-matching solve used by verification.  The pipeline and
filters hold the *logic* (which candidates to compare, when to stop);
backends hold the *arithmetic*, so swapping pure Python for numpy (or,
later, anything else) cannot change results -- only speed.

Weight matrices are intentionally opaque: callers read them through
:meth:`ComputeBackend.matrix_entry` and solve them through
:meth:`ComputeBackend.assignment_score`.  Every backend builds the
sparse rows of :mod:`repro.matching.sparse` and solves them there, so
verification is one code path; a backend only decides how the edit
grid behind them is computed.
"""

from __future__ import annotations

import abc
from itertools import repeat
from operator import attrgetter
from typing import Mapping, Optional, Sequence, Tuple

from repro.backends.select import merge_distinct_postings_python
from repro.core.records import ElementRecord, SetCollection, SetRecord
from repro.sim.functions import SimilarityFunction
from repro.sim.memo import SimilarityMemo

_INDEX_TOKENS = attrgetter("index_tokens")


def lookup_edit_grid(
    patterns: Sequence[str],
    texts: Sequence[str],
    memo: SimilarityMemo | None,
) -> tuple[list[list], int]:
    """Memo-first rows of an edit grid and how many cells are unknown.

    ``rows[i][j]`` is the memoised ``phi_alpha(patterns[i], texts[j])``
    or ``None`` where the memo holds nothing (everywhere, without an
    enabled memo).
    """
    if memo is None or not memo.enabled:
        return [[None] * len(texts) for _ in patterns], len(patterns) * len(texts)
    rows = [memo.lookup(x, texts) for x in patterns]
    return rows, sum(row.count(None) for row in rows)


def fill_edit_grid(
    phi: SimilarityFunction,
    patterns: Sequence[str],
    texts: Sequence[str],
    rows: list[list],
    memo: SimilarityMemo | None,
) -> None:
    """Compute the ``None`` cells of *rows* one scalar call at a time.

    Each becomes ``phi.edit_at_least(x, y, 0.0)`` -- the banded
    Levenshtein bails out as soon as a pair provably scores below
    alpha -- and is stored in *memo* for later passes.
    """
    store = memo.store if memo is not None and memo.enabled else None
    for x, row in zip(patterns, rows):
        if None not in row:
            continue
        for j, value in enumerate(row):
            if value is None:
                row[j] = value = phi.edit_at_least(x, texts[j], 0.0)
                if store is not None:
                    store(x, texts[j], value)


class ComputeBackend(abc.ABC):
    """Numeric kernels behind the staged pipeline.

    Implementations must be *exact* drop-ins for one another: the
    pipeline's property tests assert identical results across backends
    on identical inputs.
    """

    #: Registry name (``SilkMothConfig.backend`` / ``SILKMOTH_BACKEND``).
    name: str = "abstract"

    # ------------------------------------------------------------------
    # Columnar candidate-batch kernels
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def size_filter_indices(
        self, sizes: Sequence[int], lo: float, hi: float
    ) -> list[int]:
        """Indices k with ``lo <= sizes[k] <= hi``."""

    @abc.abstractmethod
    def threshold_indices(
        self, values: Sequence[float], cutoff: float
    ) -> list[int]:
        """Indices k with ``values[k] >= cutoff``."""

    @abc.abstractmethod
    def add_scalar(self, scalar: float, values: Sequence[float]) -> list[float]:
        """Elementwise ``scalar + values`` (check-filter bound aggregation)."""

    # ------------------------------------------------------------------
    # Index-traversal kernels
    # ------------------------------------------------------------------
    def merge_distinct_postings(
        self,
        key_arrays: Sequence[Sequence[int]],
        skip_set: Optional[int],
        deleted: frozenset,
        sizes: Sequence[int],
        size_range: Optional[Tuple[float, float]],
    ) -> Tuple[Sequence[int], int, int, int]:
        """Distinct gated posting keys across sorted packed runs.

        The candidate-selection merge (Section 5.1): *key_arrays* are
        the probed tokens' packed posting arrays (each sorted, unique,
        handed over in ascending length order), and the result is the
        sorted distinct ``(set_id << 32) | element_index`` keys that
        survive the self-match (*skip_set*), tombstone (*deleted*) and
        cardinality (*size_range* over *sizes*) gates -- plus the
        select-funnel accounting ``(postings_scanned, distinct_pairs,
        size_gate_drops)``.

        The default is the shared pure-Python galloping merge
        (:mod:`repro.backends.select`); the numpy backend substitutes a
        vectorised sorted-run path.  Implementations must return
        identical keys and counts for identical inputs.
        """
        return merge_distinct_postings_python(
            key_arrays, skip_set, deleted, sizes, size_range
        )

    # ------------------------------------------------------------------
    # Similarity kernels
    # ------------------------------------------------------------------
    def edit_values(
        self,
        phi: SimilarityFunction,
        tasks: Sequence[Tuple[str, str, float]],
        memo: SimilarityMemo | None = None,
    ) -> list[float]:
        """Floored ``phi_alpha(x, y)`` per ``(x, y, floor)`` task.

        Edit kinds only; each entry has the exact semantics of
        :meth:`repro.sim.memo.SimilarityMemo.edit_value` (memo enabled)
        or :meth:`repro.sim.functions.SimilarityFunction.edit_at_least`
        -- a pure function of the two strings and the floor, so backends
        may batch or reorder the underlying distance computations freely
        (the numpy backend runs a lane-parallel Myers kernel) without
        changing a single returned float.  Whether the cross-stage memo
        is consulted/populated is a backend throughput decision; it can
        shift cache hit counters, never values.
        """
        if memo is not None and memo.enabled:
            return [
                memo.edit_value(phi, x, y, floor) for x, y, floor in tasks
            ]
        return [phi.edit_at_least(x, y, floor) for x, y, floor in tasks]

    def edit_grid(
        self,
        phi: SimilarityFunction,
        patterns: Sequence[str],
        texts: Sequence[str],
        memo: SimilarityMemo | None = None,
    ):
        """The ``len(patterns) x len(texts)`` matrix of ``phi_alpha`` values.

        Edit kinds only; every cell equals
        ``phi.edit_at_least(patterns[i], texts[j], 0.0)`` bit for bit.
        This is the one way an edit-kind weight matrix gets built:
        verification asks for one grid per pass (patterns = the
        reference's elements, texts = the distinct element texts of all
        survivors) and takes each candidate's matrix from its positive
        cells (:meth:`grid_columns`); :meth:`weight_matrix` asks for
        the grid of a single candidate.  *memo* is consulted first and
        receives what had to be computed, so the cross-stage cache
        means what it always did; only how its misses are computed is
        up to the backend (scalar calls here, Myers lanes on numpy).
        The result is the backend's own grid type (lists of lists
        here, an ndarray on numpy).
        """
        rows, _ = lookup_edit_grid(patterns, texts, memo)
        fill_edit_grid(phi, patterns, texts, rows, memo)
        return rows

    @abc.abstractmethod
    def token_similarities(
        self,
        probe: frozenset[int],
        targets: Sequence[frozenset[int]],
        phi: SimilarityFunction,
    ) -> list[float]:
        """``phi_alpha(probe, t)`` for each token-id set in *targets*.

        Token-based kinds only; semantics identical to
        :meth:`repro.sim.functions.SimilarityFunction.tokens` per entry.
        """

    def indexed_token_similarities(
        self,
        probe: frozenset[int],
        elements: Mapping[int, ElementRecord] | Sequence[ElementRecord],
        keys: Sequence[int],
        phi: SimilarityFunction,
    ) -> list[float]:
        """``phi_alpha(probe, elements[key])`` per key of an indexed table.

        Candidate selection's scoring kernel: *elements* is the index's
        content table and *keys* the merged ids of the distinct
        contents one reference element's signature tokens reach (any
        int-indexable table of records does: the forward column keyed
        by packed posting key, say).  Entry k equals
        ``phi.tokens(probe, elements[keys[k]].index_tokens)`` bit for
        bit; the gather, the intersection and the size counts are
        C-level ``map`` passes over the records' own frozensets -- no
        Python frame per key -- and the closed form is
        :meth:`~repro.sim.functions.SimilarityFunction.tokens_from_counts`.
        One implementation serves every backend: a call scores a few
        to a few dozen contents, where the scalar ``map`` beats an
        array expression (measurements: CHANGES.md, PR 20).
        """
        if phi.kind.is_edit_based:
            raise ValueError(
                "indexed_token_similarities requires a token-based kind"
            )
        targets = list(map(_INDEX_TOKENS, map(elements.__getitem__, keys)))
        return list(
            map(
                phi.tokens_from_counts,
                repeat(len(probe)),
                map(len, targets),
                map(len, map(probe.__and__, targets)),
            )
        )

    def witnesses(
        self, scores: Sequence[float], bound: float
    ) -> Tuple[list[int], list[float]]:
        """Positions k with ``scores[k] > bound``, and those scores.

        The check filter's per-element witness test (Algorithm 1):
        only the pairs whose similarity beats the signature bound are
        ever recorded.  Positions ascend.
        """
        hits = [k for k, score in enumerate(scores) if score > bound]
        return hits, [scores[k] for k in hits]

    # ------------------------------------------------------------------
    # Verification kernels
    # ------------------------------------------------------------------
    def weight_matrix(
        self,
        reference: SetRecord,
        candidate: SetRecord,
        phi: SimilarityFunction,
        memo: SimilarityMemo | None = None,
        collection: SetCollection | None = None,
    ):
        """Pairwise ``phi_alpha`` weight matrix (backend-opaque type).

        The sparse rows of :mod:`repro.matching.sparse`: token kinds
        count them off the candidate's tokens, edit kinds take the
        positive cells of :meth:`edit_grid` over the two sets' element
        texts (*memo* as there).  *collection* is the candidate's
        collection when the caller has one; nothing here reads it.
        """
        # Imported here: repro.matching's own modules import this package.
        from repro.matching.sparse import column_rows, token_rows

        if phi.kind.is_token_based:
            return token_rows(reference, candidate, phi)
        grid = self.edit_grid(
            phi,
            [r.text for r in reference.elements],
            [s.text for s in candidate.elements],
            memo,
        )
        return column_rows(len(reference), self.grid_columns(grid))

    def grid_columns(self, grid) -> list[list[tuple[int, float]]]:
        """Per column of an :meth:`edit_grid`, its positive cells.

        Each column is a list of ``(row, weight)`` in ascending row
        order -- what :func:`repro.matching.sparse.column_rows` turns
        into a candidate's weight matrix.
        """
        return [
            [(i, weight) for i, weight in enumerate(column) if weight > 0.0]
            for column in zip(*grid)
        ]

    def assignment_score(self, matrix) -> float:
        """Maximum-weight bipartite matching score of a weight matrix."""
        from repro.matching.hungarian import matching_total
        from repro.matching.sparse import sparse_assignment

        return matching_total(sparse_assignment(matrix))

    def matrix_entry(self, matrix, i: int, j: int) -> float:
        """Read one entry of a matrix built by :meth:`weight_matrix`."""
        return matrix[i].get(j, 0.0)

    def matrix_columns(self, matrix, columns: Sequence[int]):
        """The matrix whose j-th column is column ``columns[j]`` of *matrix*."""
        return [
            {j: row[c] for j, c in enumerate(columns) if c in row}
            for row in matrix
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
