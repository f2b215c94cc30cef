"""Matching-score helpers shared by verification and the baselines.

The weight matrix between two sets is almost always sparse: under
Jaccard, two elements with no common token have similarity exactly 0;
under an edit kind with ``alpha > 0``, any pair whose banded Levenshtein
cannot clear ``alpha`` contributes 0.  So a weight matrix is its sparse
rows (:mod:`repro.matching.sparse`): token kinds count them off one
token -> columns map of the candidate; edit kinds take the positive
cells of the backend's
:meth:`~repro.backends.base.ComputeBackend.edit_grid` -- one grid for
the survivors of a verification pass (:func:`edit_weight_matrices`), or
the grid of a single candidate through ``backend.weight_matrix``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.backends import get_backend
from repro.backends.base import ComputeBackend
from repro.core.records import SetRecord
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


#: Candidates per grid.  Bounds the transient ``|R| x distinct texts``
#: grid on passes that verify a whole collection (full scans); far more
#: pairs than a lane batch needs to amortise.
GRID_CANDIDATES = 512


def edit_weight_matrices(
    reference: SetRecord,
    candidates: Sequence[SetRecord],
    phi: SimilarityFunction,
    backend: ComputeBackend,
    memo: SimilarityMemo | None = None,
) -> Iterator:
    """Each candidate's edit-kind weight matrix, from one grid per block.

    The backend scores the reference's elements against the *distinct*
    element texts of up to :data:`GRID_CANDIDATES` candidates in one
    ``edit_grid`` call and lists the positive cells of each text's
    column once; a candidate's matrix is those lists, one per element
    (cells are pure functions of the two strings, so sharing them
    changes no float).
    """
    patterns = [element.text for element in reference.elements]
    for start in range(0, len(candidates), GRID_CANDIDATES):
        block = candidates[start : start + GRID_CANDIDATES]
        texts = list(
            dict.fromkeys(
                element.text for candidate in block for element in candidate.elements
            )
        )
        grid = backend.edit_grid(phi, patterns, texts, memo)
        cells = dict(zip(texts, backend.grid_columns(grid)))
        for candidate in block:
            yield column_rows(
                len(patterns), [cells[element.text] for element in candidate.elements]
            )


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
