"""The compute-backend interface and shared sparse-matrix helpers.

A :class:`ComputeBackend` supplies the numeric kernels the staged query
pipeline (:mod:`repro.pipeline`) is built on: columnar filtering of
candidate batches, batched element-similarity evaluation, and the
maximum-weight-matching solve used by verification.  The pipeline and
filters hold the *logic* (which candidates to compare, when to stop);
backends hold the *arithmetic*, so swapping pure Python for numpy (or,
later, anything else) cannot change results -- only speed.

Weight matrices are intentionally opaque: the Python backend uses lists
of lists, the numpy backend an ndarray, and only the backend that built
a matrix consumes it (via :meth:`ComputeBackend.assignment_score`).
"""

from __future__ import annotations

import abc
from collections import defaultdict
from itertools import repeat
from operator import attrgetter
from typing import Callable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.backends.select import merge_distinct_postings_python
from repro.core.records import ElementRecord, SetCollection, SetRecord
from repro.sim.functions import SimilarityFunction
from repro.sim.memo import SimilarityMemo


def iter_token_pairs(
    reference: SetRecord, candidate: SetRecord
) -> Iterator[tuple[int, frozenset[int], set[int]]]:
    """Yield ``(i, r_tokens, touched columns)`` for token-sharing pairs.

    Every token-based kind scores 0 on a pair of elements without a
    common token, so a backend filling a weight matrix only needs the
    pairs this yields; all other entries stay 0.
    """
    by_token: defaultdict[int, list[int]] = defaultdict(list)
    for j, s in enumerate(candidate.elements):
        for token in s.index_tokens:
            by_token[token].append(j)
    for i, r in enumerate(reference.elements):
        touched: set[int] = set()
        for token in r.index_tokens:
            touched.update(by_token.get(token, ()))
        yield i, r.index_tokens, touched


_INDEX_TOKENS = attrgetter("index_tokens")


def fill_weight_matrix(
    reference: SetRecord,
    candidate: SetRecord,
    phi: SimilarityFunction,
    set_entry: Callable[[int, int, float], None],
) -> None:
    """Write every non-zero token-kind weight through *set_entry*.

    Shared by all backends so the token-sharing sparsity logic exists
    once.  Edit kinds never come here: their matrices are columns of
    :meth:`ComputeBackend.edit_grid`.
    """
    # Two elements without a common token score 0 -- except the
    # degenerate empty/empty pair, which every token kind defines
    # as similarity 1 and the index can never surface.
    empty_cols = [
        j for j, s in enumerate(candidate.elements) if not s.index_tokens
    ]
    empty_weight = phi.threshold(1.0)
    for i, r_tokens, touched in iter_token_pairs(reference, candidate):
        for j in touched:
            set_entry(
                i, j, phi.tokens(r_tokens, candidate.elements[j].index_tokens)
            )
        if not r_tokens and empty_weight > 0.0:
            for j in empty_cols:
                set_entry(i, j, empty_weight)


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
        survivors) and gathers each candidate's matrix from it with
        :meth:`matrix_columns`; :meth:`weight_matrix` asks for the grid
        of a single candidate.  *memo* is consulted first and receives
        what had to be computed, so the cross-stage cache means what it
        always did; only how its misses are computed is up to the
        backend (scalar calls here, Myers lanes on numpy).  The result
        has the backend's matrix type.
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
    @abc.abstractmethod
    def weight_matrix(
        self,
        reference: SetRecord,
        candidate: SetRecord,
        phi: SimilarityFunction,
        memo: SimilarityMemo | None = None,
        collection: SetCollection | None = None,
    ):
        """Pairwise ``phi_alpha`` weight matrix (backend-opaque type).

        Edit kinds return :meth:`edit_grid` of the two sets' element
        texts (*memo* as there); *collection* (token kinds) lets a
        backend use precomputed packed token arrays when *candidate*
        is one of its live records.
        """

    def release_packed_sets(self, collection: SetCollection, set_ids) -> None:
        """Drop any precomputed per-set state for *set_ids*.

        Called by owners that physically compact tombstoned sets away
        (e.g. the service's index compaction), so backend-side caches
        cannot grow with lifetime mutations.  No-op for backends
        without per-set state.
        """

    @abc.abstractmethod
    def assignment_score(self, matrix) -> float:
        """Maximum-weight bipartite matching score of a weight matrix."""

    @abc.abstractmethod
    def matrix_entry(self, matrix, i: int, j: int) -> float:
        """Read one entry of a matrix built by :meth:`weight_matrix`."""

    @abc.abstractmethod
    def matrix_columns(self, matrix, columns: Sequence[int]):
        """The matrix whose j-th column is column ``columns[j]`` of *matrix*."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
