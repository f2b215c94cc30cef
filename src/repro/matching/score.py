"""Matching-score helpers shared by verification and the baselines.

The weight matrix between two sets is almost always sparse: under
Jaccard, two elements with no common token have similarity exactly 0;
under an edit kind with ``alpha > 0``, any pair whose banded Levenshtein
cannot clear ``alpha`` contributes 0.  So a weight matrix is its sparse
rows (:mod:`repro.matching.sparse`): token kinds count them off one
token -> columns map of the candidate; edit kinds take the positive
cells of a verification pass's batch (:func:`edit_weight_matrices`) or,
for a single candidate, of the backend's
:meth:`~repro.backends.base.ComputeBackend.edit_grid` through
``backend.weight_matrix``.  The pass batch scores only the cells that
share a q-gram whenever Section 7.1's no-share cap thresholds to 0 for
every reference element, which is the evaluation's
``q < alpha/(1-alpha)`` constraint: a pair sharing no gram then scores
0, so its cell needs no edit distance.
"""

from __future__ import annotations

from itertools import compress
from operator import not_
from typing import Iterable, Iterator, Sequence

from repro.backends import get_backend
from repro.backends.base import ComputeBackend
from repro.core.records import ElementRecord, SetRecord
from repro.matching.sparse import column_rows
from repro.sim.functions import SimilarityFunction
from repro.sim.memo import SimilarityMemo


def build_weight_matrix(
    reference: SetRecord,
    candidate: SetRecord,
    phi: SimilarityFunction,
    backend: ComputeBackend | None = None,
    memo: SimilarityMemo | None = None,
):
    """Pairwise ``phi_alpha`` weights between the elements of two sets.

    The matrix is the backend's opaque type (sparse rows); read entries
    through ``backend.matrix_entry``.  *memo* serves edit-kind pairs
    from the cross-stage cache.
    """
    if backend is None:
        backend = get_backend()
    return backend.weight_matrix(reference, candidate, phi, memo=memo)


#: Candidates per block.  Bounds the transient ``|R| x distinct texts``
#: grid on passes that verify a whole collection (full scans); far more
#: pairs than a lane batch needs to amortise.
GRID_CANDIDATES = 512


def edit_weight_matrices(
    reference: SetRecord,
    candidates: Sequence[SetRecord],
    phi: SimilarityFunction,
    backend: ComputeBackend,
    q: int,
    memo: SimilarityMemo | None = None,
) -> Iterator:
    """Each candidate's edit-kind weight matrix, from one batch per block.

    A block is up to :data:`GRID_CANDIDATES` candidates; its cells are
    the reference's elements against the block's *distinct* element
    texts, and each text's positive cells are listed once; a
    candidate's matrix is those lists, one per element (cells are pure
    functions of the two strings, so sharing them changes no float).
    *q* is the collection's gram length.

    When every reference element's no-share cap
    (:meth:`~repro.sim.functions.SimilarityFunction.no_share_cap`) is
    0, a cell whose two strings share no q-gram is 0, so only the
    sharing cells are scored, in one ``backend.edit_values`` batch.  A
    block in which every cell shares, and a reference with any positive
    cap, take the dense ``backend.edit_grid`` instead.
    """
    elements = reference.elements
    if not elements:  # no rows: every matrix is the empty one
        yield from ([] for _ in candidates)
        return
    patterns = [element.text for element in elements]
    sparse = not any(phi.no_share_cap(element.length, q) for element in elements)
    for start in range(0, len(candidates), GRID_CANDIDATES):
        block = candidates[start : start + GRID_CANDIDATES]
        records = {
            element.text: element
            for candidate in block
            for element in candidate.elements
        }
        texts = list(records)
        columns = (
            _sharing_columns(elements, texts, records.values(), phi, backend, memo)
            if sparse
            else None
        )
        if columns is None:
            columns = backend.grid_columns(
                backend.edit_grid(phi, patterns, texts, memo)
            )
        cells = dict(zip(texts, columns))
        for candidate in block:
            yield column_rows(
                len(patterns), [cells[element.text] for element in candidate.elements]
            )


def _sharing_columns(
    elements: Sequence[ElementRecord],
    texts: Sequence[str],
    records: Iterable[ElementRecord],
    phi: SimilarityFunction,
    backend: ComputeBackend,
    memo: SimilarityMemo | None,
) -> list[list[tuple[int, float]]] | None:
    """Per text, the positive cells among those that share a gram.

    In the :meth:`~repro.backends.base.ComputeBackend.grid_columns`
    shape (``(row, weight)`` in ascending row order), or ``None`` when
    every cell shares a gram and the dense grid does the same work in
    lanes.  *records* are the texts' element records, in text order.
    """
    grams = [record.index_tokens for record in records]
    disjoint = [element.index_tokens.isdisjoint for element in elements]
    if not any(any(map(test, grams)) for test in disjoint):
        return None
    width = range(len(texts))
    sharing = [list(compress(width, map(not_, map(test, grams)))) for test in disjoint]
    values = iter(
        backend.edit_values(
            phi,
            [
                (element.text, texts[j], 0.0)
                for element, row in zip(elements, sharing)
                for j in row
            ],
            memo,
        )
    )
    columns: list[list[tuple[int, float]]] = [[] for _ in texts]
    for i, row in enumerate(sharing):
        for j, value in zip(row, values):
            if value > 0.0:
                columns[j].append((i, value))
    return columns


def matching_score(
    reference: SetRecord,
    candidate: SetRecord,
    phi: SimilarityFunction,
    backend: ComputeBackend | None = None,
    memo: SimilarityMemo | None = None,
    weights=None,
) -> float:
    """The maximum matching score ``|R ~cap~ S|`` without any reduction.

    *weights* is the pair's weight matrix when the caller already has
    it (verification's per-pass grid); it is built here otherwise.
    """
    if len(reference) == 0 or len(candidate) == 0:
        return 0.0
    if backend is None:
        backend = get_backend()
    if weights is None:
        weights = backend.weight_matrix(reference, candidate, phi, memo=memo)
    return backend.assignment_score(weights)
