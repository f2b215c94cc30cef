"""Reduction-based verification (paper Section 5.3).

When the dual distance ``1 - phi`` satisfies the triangle inequality
(true for Jaccard and Eds with ``alpha = 0``), every pair of identical
elements can be assumed to appear in some maximum matching.  We
therefore greedily match identical elements (multiset-style: each copy
matches one copy), remove them from both sides, run the Hungarian
algorithm on the remainder, and add one per matched identical pair.

The reduction is *not* valid when ``alpha > 0`` because ``1 - phi_alpha``
is no longer a metric (Section 6.5); callers must fall back to
:func:`repro.matching.score.matching_score` in that case.
"""

from __future__ import annotations

from collections import Counter

from repro.backends import get_backend
from repro.backends.base import ComputeBackend
from repro.core.records import ElementRecord, SetRecord
from repro.matching.score import build_weight_matrix
from repro.sim.functions import SimilarityFunction, SimilarityKind
from repro.sim.memo import SimilarityMemo


def _element_key(element: ElementRecord, kind: SimilarityKind):
    """Identity key for an element under the given similarity kind.

    Two elements are "identical" (phi == 1) when their word token sets
    coincide under Jaccard, or their strings coincide under edit kinds.
    """
    if kind.is_token_based:
        return element.index_tokens
    return element.text


def reduced_matching_score(
    reference: SetRecord,
    candidate: SetRecord,
    phi: SimilarityFunction,
    backend: ComputeBackend | None = None,
    memo: SimilarityMemo | None = None,
) -> float:
    """Maximum matching score computed with the identical-element reduction.

    Raises
    ------
    ValueError
        If ``phi.alpha > 0`` (the reduction would be unsound).
    """
    if phi.alpha > 0.0:
        raise ValueError("reduction-based verification requires alpha == 0")
    if not phi.kind.supports_reduction:
        raise ValueError(
            f"reduction requires a metric dual distance; {phi.kind.value} "
            "does not satisfy the triangle inequality"
        )
    if len(reference) == 0 or len(candidate) == 0:
        return 0.0

    ref_counts = Counter(_element_key(e, phi.kind) for e in reference.elements)

    matched = 0
    leftover_candidate: list[ElementRecord] = []
    for element in candidate.elements:
        key = _element_key(element, phi.kind)
        if ref_counts.get(key, 0) > 0:
            ref_counts[key] -= 1
            matched += 1
        else:
            leftover_candidate.append(element)

    leftover_reference: list[ElementRecord] = []
    for element in reference.elements:
        key = _element_key(element, phi.kind)
        if ref_counts.get(key, 0) > 0:
            ref_counts[key] -= 1
            leftover_reference.append(element)

    if not leftover_reference or not leftover_candidate:
        return float(matched)

    residual_reference = SetRecord(
        set_id=reference.set_id, elements=tuple(leftover_reference)
    )
    residual_candidate = SetRecord(
        set_id=candidate.set_id, elements=tuple(leftover_candidate)
    )
    if backend is None:
        backend = get_backend()
    weights = build_weight_matrix(
        residual_reference, residual_candidate, phi, backend=backend, memo=memo
    )
    return float(matched) + backend.assignment_score(weights)
