"""Maximum-weight assignment with the pairing itself (not just the score).

Verification only needs the matching *score*, but applications usually
want to know which element aligned with which (e.g. which Address row
explains each Location row in Table 1).  The score is formed from the
matched triples of :func:`repro.matching.sparse.sparse_assignment`
(zero-weight pairs never appear: they contribute nothing); this module
turns the same triples into :class:`AlignedPair` records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.base import ComputeBackend
from repro.core.records import SetRecord
from repro.matching.hungarian import matching_total
from repro.matching.score import build_weight_matrix
from repro.matching.sparse import sparse_assignment
from repro.sim.functions import SimilarityFunction
from repro.sim.memo import SimilarityMemo


@dataclass(frozen=True)
class AlignedPair:
    """One edge of the maximum matching.

    ``reference_index`` / ``candidate_index`` are element positions
    within their sets; ``weight`` is ``phi_alpha`` of the pair.
    """

    reference_index: int
    candidate_index: int
    weight: float


def scored_alignment(
    reference: SetRecord,
    candidate: SetRecord,
    phi: SimilarityFunction,
    backend: ComputeBackend | None = None,
    memo: SimilarityMemo | None = None,
) -> tuple[float, list[AlignedPair]]:
    """The matching score and the element pairs behind it.

    Both come from one set of triples: the score is
    :func:`repro.matching.score.matching_score` on the same inputs to
    the last bit, the pairs are sorted by reference then candidate
    index.  Arguments as for ``matching_score``.
    """
    if len(reference) == 0 or len(candidate) == 0:
        return 0.0, []
    triples = sparse_assignment(
        build_weight_matrix(reference, candidate, phi, backend=backend, memo=memo)
    )
    return matching_total(triples), [
        AlignedPair(reference_index=i, candidate_index=j, weight=weight)
        for i, j, weight in sorted(triples)
    ]


def matching_alignment(
    reference: SetRecord,
    candidate: SetRecord,
    phi: SimilarityFunction,
    backend: ComputeBackend | None = None,
    memo: SimilarityMemo | None = None,
) -> list[AlignedPair]:
    """The maximum matching between two sets as explicit element pairs.

    The pair half of :func:`scored_alignment`.
    """
    return scored_alignment(
        reference, candidate, phi, backend=backend, memo=memo
    )[1]
