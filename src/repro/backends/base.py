"""The compute backend.

A :class:`ComputeBackend` supplies the numeric kernels the staged query
pipeline (:mod:`repro.pipeline`) is built on: the candidate-selection
posting merge, batched element-similarity evaluation, and the
maximum-weight-matching solve used by verification.  The pipeline and
filters hold the *logic* (which candidates to compare, when to stop);
the backend holds the *arithmetic*.

There is one backend.  Its kernels are scalar Python except on long
batches of three shapes -- a posting merge scanning at least
:attr:`ComputeBackend.select_min_postings` keys, an edit batch of at
least :attr:`ComputeBackend.edit_batch_min_tasks` pairs, a token-kind
NN group search over at least :attr:`ComputeBackend.nn_group_min_sets`
sets -- which go to :mod:`repro.backends.numpy_kernels` when numpy is
installed.  Either path returns the same keys and floats bit for bit,
so the gates decide speed only.

Weight matrices are intentionally opaque: callers read them through
:meth:`ComputeBackend.matrix_entry` and solve them through
:meth:`ComputeBackend.assignment_score`.  They are the sparse rows of
:mod:`repro.matching.sparse`, so verification is one code path.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import attrgetter
from typing import Mapping, Optional, Sequence, Tuple

from repro.backends.select import merge_distinct_postings_python
from repro.core.records import ElementRecord, SetRecord
from repro.index.inverted import PACK_MASK, PACK_SHIFT, InvertedIndex
from repro.sim.functions import SimilarityFunction
from repro.sim.memo import SimilarityMemo

try:
    import repro.backends.numpy_kernels as numpy_kernels
except ImportError:  # numpy is optional: every kernel has a scalar path
    numpy_kernels = None

_INDEX_TOKENS = attrgetter("index_tokens")


class ComputeBackend:
    """Numeric kernels behind the staged pipeline.

    The three class attributes below gate the numpy kernels by batch size
    (measurements: ``docs/parameters.md``, "Array kernels"); results
    never depend on them, only which (equally exact) path runs.
    """

    #: Registry name (:func:`repro.backends.get_backend`).
    name: str = "default"

    #: Minimum posting keys one merge scans before the numpy sorted-run
    #: merge runs; smaller probes take the pure-Python galloping merge,
    #: whose constant factors win before array lifting can amortise.
    select_min_postings: int = 64

    #: Minimum number of pairs to score before the lane-parallel Myers
    #: kernel runs -- tasks of an :meth:`edit_values` batch, cells of an
    #: :meth:`edit_grid` the memo does not hold.  Below it the scalar
    #: banded path wins: a lane batch costs a fixed ~20 array dispatches
    #: per text character however few lanes it has.
    edit_batch_min_tasks: int = 64

    #: Minimum set ids in one token-kind NN group search before the
    #: numpy range gather runs.  Below it the scalar galloping walk
    #: wins: the array path pays a dozen dispatches per probe token
    #: however few sets it covers.
    nn_group_min_sets: int = 16

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

        The pure-Python galloping merge (:mod:`repro.backends.select`)
        runs unless the probe scans :attr:`select_min_postings` keys and
        numpy is installed; both return identical keys and counts.
        """
        if numpy_kernels is not None:
            scanned = sum(len(run) for run in key_arrays)
            if scanned >= self.select_min_postings:
                return numpy_kernels.merge_distinct_postings(
                    key_arrays, skip_set, deleted, sizes, size_range, scanned
                )
        return merge_distinct_postings_python(
            key_arrays, skip_set, deleted, sizes, size_range
        )

    def nearest_in_sets(
        self,
        probe: frozenset[int],
        set_ids: Sequence[int],
        index: InvertedIndex,
        phi: SimilarityFunction,
    ) -> dict[int, float]:
        """Token-kind NN values of the non-empty *probe* in each of *set_ids*.

        The NN filter's group walk (Section 5.2): ``{set_id: phi_alpha
        of the nearest element}`` for the ascending *set_ids* where that
        is positive, counting ``|probe & s_j|`` off *probe*'s posting
        runs (one posting per element and distinct token, so the number
        of runs holding key ``(S, j)`` is the intersection size) and
        reading ``|s_j|`` off :meth:`InvertedIndex.token_count_column`;
        the score is :meth:`SimilarityFunction.tokens_from_counts`.  A
        repeated set id counts once.

        The scalar path walks each run with
        :meth:`InvertedIndex.keys_in_sets`; a group of
        :attr:`nn_group_min_sets` or more set ids takes the numpy range
        gather (:func:`repro.backends.numpy_kernels.nearest_in_sets`)
        when numpy is installed.  Both return the same floats.
        """
        if numpy_kernels is not None and len(set_ids) >= self.nn_group_min_sets:
            return numpy_kernels.nearest_in_sets(probe, set_ids, index, phi)
        found: list[int] = []
        for token in probe:
            found += index.keys_in_sets(token, set_ids)
        offsets, counts = index.token_count_column()
        size = len(probe)
        # The closed form runs once per distinct (|s_j|, shared) shape.
        score_of: dict[tuple[int, int], float] = {}
        nearest: dict[int, float] = {}
        for key, shared in Counter(found).items():
            set_id = key >> PACK_SHIFT
            shape = (counts[offsets[set_id] + (key & PACK_MASK)], shared)
            score = score_of.get(shape)
            if score is None:
                score = score_of[shape] = phi.tokens_from_counts(size, *shape)
            if score > nearest.get(set_id, 0.0):
                nearest[set_id] = score
        return nearest

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
        -- a pure function of the two strings and the floor, so a batch
        of :attr:`edit_batch_min_tasks` or more runs the lane-parallel
        Myers kernel (:func:`repro.backends.numpy_kernels.edit_values`)
        without changing a single returned float.  That path bypasses
        the cross-stage memo, which can shift its hit counters, never
        values.
        """
        if numpy_kernels is not None and tasks and (
            len(tasks) >= self.edit_batch_min_tasks
        ):
            return numpy_kernels.edit_values(
                phi, tasks, memo, self.edit_batch_min_tasks
            )
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
    ) -> list[list[float]]:
        """The ``len(patterns) x len(texts)`` rows of ``phi_alpha`` values.

        Edit kinds only; every cell equals
        ``phi.edit_at_least(patterns[i], texts[j], 0.0)`` bit for bit.
        Verification asks for one grid per block of survivors (patterns
        = the reference's elements, texts = the block's distinct element
        texts) unless it can score the cells that share a gram alone
        (:func:`repro.matching.score.edit_weight_matrices`), and takes
        each candidate's matrix from its positive cells
        (:meth:`grid_columns`); :meth:`weight_matrix` asks for the grid
        of a single candidate.  *memo* is consulted first and
        receives what had to be computed, so the cross-stage cache
        means what it always did.  When at least
        :attr:`edit_batch_min_tasks` cells are unknown (and alpha is
        positive, without which no cell has a band) they are offered to
        the Myers lanes in one batch; whatever is still unknown after
        that is computed one banded ``phi.edit_at_least(x, y, 0.0)``
        call at a time.
        """
        memoized = memo is not None and memo.enabled
        if memoized:
            rows = [memo.lookup(x, texts) for x in patterns]
            unknown = sum(row.count(None) for row in rows)
        else:
            rows = [[None] * len(texts) for _ in patterns]
            unknown = len(patterns) * len(texts)
        if (
            numpy_kernels is not None
            and unknown >= self.edit_batch_min_tasks
            and phi.alpha > 0.0
        ):
            numpy_kernels.fill_grid_lanes(
                phi, patterns, texts, rows, memo, self.edit_batch_min_tasks
            )
        for x, row in zip(patterns, rows):
            if None not in row:
                continue
            for j, value in enumerate(row):
                if value is None:
                    row[j] = value = phi.edit_at_least(x, texts[j], 0.0)
                    if memoized:
                        memo.store(x, texts[j], value)
        return rows

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
        return [phi.tokens(probe, target) for target in targets]

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
        A call scores a few to a few dozen contents, where the scalar
        ``map`` beats an array expression.
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

    # ------------------------------------------------------------------
    # Verification kernels
    # ------------------------------------------------------------------
    def weight_matrix(
        self,
        reference: SetRecord,
        candidate: SetRecord,
        phi: SimilarityFunction,
        memo: SimilarityMemo | None = None,
    ):
        """Pairwise ``phi_alpha`` weight matrix (opaque type).

        The sparse rows of :mod:`repro.matching.sparse`: token kinds
        count them off the candidate's tokens, edit kinds take the
        positive cells of :meth:`edit_grid` over the two sets' element
        texts (*memo* as there).
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

    def assignment_score(self, matrix) -> float:
        """Maximum-weight bipartite matching score of a weight matrix."""
        from repro.matching.hungarian import matching_total
        from repro.matching.sparse import sparse_assignment

        return matching_total(sparse_assignment(matrix))

    def matrix_entry(self, matrix, i: int, j: int) -> float:
        """Read one entry of a matrix built by :meth:`weight_matrix`."""
        return matrix[i].get(j, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
