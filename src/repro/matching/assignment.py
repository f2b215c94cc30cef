"""Maximum-weight assignment with the pairing itself (not just the score).

Verification only needs the matching *score*, but applications usually
want to know which element aligned with which (e.g. which Address row
explains each Location row in Table 1).  The solvers of
:mod:`repro.matching.hungarian` already compute the argmax assignment
(zero-weight pairs dropped: they contribute nothing and are an artifact
of padding); this module turns it into :class:`AlignedPair` records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends import get_backend
from repro.core.records import SetRecord
from repro.matching.hungarian import max_weight_assignment
from repro.matching.score import build_weight_matrix
from repro.sim.functions import SimilarityFunction


@dataclass(frozen=True)
class AlignedPair:
    """One edge of the maximum matching.

    ``reference_index`` / ``candidate_index`` are element positions
    within their sets; ``weight`` is ``phi_alpha`` of the pair.
    """

    reference_index: int
    candidate_index: int
    weight: float


def matching_alignment(
    reference: SetRecord,
    candidate: SetRecord,
    phi: SimilarityFunction,
    backend=None,
) -> list[AlignedPair]:
    """The maximum matching between two sets as explicit element pairs.

    The sum of the returned weights equals
    :func:`repro.matching.score.matching_score` on the same inputs.
    *backend* is the compute backend for the weight matrix; ``None``
    resolves the process default.
    """
    if len(reference) == 0 or len(candidate) == 0:
        return []
    if backend is None:
        backend = get_backend()
    weights = build_weight_matrix(reference, candidate, phi, backend=backend)
    _, pairs = max_weight_assignment(weights)
    return [
        AlignedPair(
            reference_index=i,
            candidate_index=j,
            weight=backend.matrix_entry(weights, i, j),
        )
        for i, j in pairs
    ]
