"""Explain why a candidate set was (or wasn't) matched to a reference.

The engine's pipeline makes four decisions about every candidate --
signature probe, check filter, NN filter, verification -- and each is a
provable bound, so the whole story can be reconstructed after the fact.
:func:`explain` replays one (reference, candidate) pair through the
pipeline and records every intermediate quantity;
:func:`format_explanation` renders it as the human-readable trace the
examples and the CLI print.

This is a diagnostic tool: it recomputes rather than instruments, so
explaining is slower than searching, but it cannot drift from the real
pipeline because it calls the same signature/filter/score functions and
honours the engine's planner decision (a planner full-scan fallback
explains as signature-less, exactly as the pass executes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constants import EPSILON
from repro.core.engine import SilkMoth
from repro.core.results import relatedness_value
from repro.core.records import SetRecord
from repro.filters.nearest_neighbor import nn_search
from repro.matching.assignment import AlignedPair, scored_alignment


@dataclass(frozen=True)
class Explanation:
    """Every pipeline quantity for one (reference, candidate) pair.

    Attributes
    ----------
    theta:
        The maximum matching threshold ``delta * |R|``.
    signature_tokens:
        The reference's flattened signature, or None when no valid
        signature exists (full-scan mode).
    shares_signature_token:
        Whether the candidate contains any signature token (if not, the
        candidate is never even generated -- provably unrelated).
    check_estimate:
        The check filter's score upper bound for this candidate.
    nn_estimate:
        The nearest-neighbour filter's (tighter) upper bound.
    score:
        The exact maximum matching score.
    relatedness:
        similar() or contain() of the pair.
    related:
        The final verdict (``relatedness >= delta``).
    alignment:
        The maximum matching itself, as element index pairs.
    survives:
        Which pipeline stages the candidate survives, in order:
        "signature", "check", "nn", "verify".
    """

    reference_id: int
    candidate_id: int
    theta: float
    signature_tokens: frozenset[int] | None
    shares_signature_token: bool
    check_estimate: float
    nn_estimate: float
    score: float
    relatedness: float
    related: bool
    alignment: tuple[AlignedPair, ...]
    survives: tuple[str, ...]


def explain(
    engine: SilkMoth, reference: SetRecord, candidate_id: int
) -> Explanation:
    """Replay the pipeline for one candidate and record every bound."""
    config = engine.config
    phi = engine.phi
    candidate = engine.collection[candidate_id]
    theta = config.delta * len(reference)

    if engine.decision.full_scan:
        # The planner routed this configuration through the exact
        # full-scan fallback; the pass never generates a signature.
        signature = None
    else:
        signature = engine.scheme.generate(
            reference, theta - EPSILON, phi, engine.index
        )

    survives: list[str] = []
    shares = True
    check_estimate = float("inf")
    nn_estimate = float("inf")

    if signature is None:
        # Full-scan mode: everything is a candidate.
        survives.append("signature")
        signature_tokens = None
    else:
        signature_tokens = signature.tokens
        candidate_tokens: set[int] = set()
        for element in candidate.elements:
            candidate_tokens |= element.index_tokens
        shares = bool(signature.tokens & candidate_tokens)
        if shares:
            survives.append("signature")

        bounds = signature.element_bounds
        # Exact nearest neighbour of every reference element; both
        # estimates below read it.
        nearest = [
            nn_search(element, candidate_id, engine.index, phi, engine.collection)
            for element in reference.elements
        ]
        # Check-filter estimate: exact best similarity for elements
        # whose signature tokens the candidate shares, bound elsewhere.
        per_element = []
        for i, best in enumerate(nearest):
            if signature.per_element[i] & candidate_tokens and best > bounds[i]:
                per_element.append(best)
            else:
                per_element.append(bounds[i])
        check_estimate = sum(per_element)
        if shares and check_estimate >= theta - EPSILON:
            survives.append("check")

        # NN estimate: exact nearest neighbour for every element,
        # capped by the no-share bound for edit kinds.
        q = config.effective_q
        nn_estimate = 0.0
        for nn, element in zip(nearest, reference.elements):
            nn_estimate += max(nn, phi.no_share_cap(element.length, q))
        if "check" in survives and nn_estimate >= theta - EPSILON:
            survives.append("nn")

    score, alignment = scored_alignment(
        reference, candidate, phi, backend=engine.backend
    )
    value = relatedness_value(
        config.metric, score, len(reference), len(candidate)
    )
    related = value >= config.delta - EPSILON
    if related:
        survives.append("verify")

    return Explanation(
        reference_id=reference.set_id,
        candidate_id=candidate_id,
        theta=theta,
        signature_tokens=signature_tokens,
        shares_signature_token=shares,
        check_estimate=check_estimate,
        nn_estimate=nn_estimate,
        score=score,
        relatedness=value,
        related=related,
        alignment=tuple(alignment),
        survives=tuple(survives),
    )


def format_explanation(
    explanation: Explanation,
    engine: SilkMoth,
    reference: SetRecord,
) -> str:
    """Render an :class:`Explanation` as a readable multi-line trace."""
    candidate = engine.collection[explanation.candidate_id]
    vocabulary = engine.collection.vocabulary
    lines = [
        f"reference set {explanation.reference_id} vs "
        f"candidate set {explanation.candidate_id}",
        f"  theta (delta * |R|)     : {explanation.theta:.4f}",
    ]
    if explanation.signature_tokens is None:
        lines.append("  signature               : none (full scan)")
    else:
        tokens = sorted(
            vocabulary.token_of(token_id)
            for token_id in explanation.signature_tokens
        )
        shown = ", ".join(tokens[:8]) + (" ..." if len(tokens) > 8 else "")
        lines.append(f"  signature tokens        : {shown}")
        lines.append(
            f"  candidate shares token  : {explanation.shares_signature_token}"
        )
        lines.append(
            f"  check-filter estimate   : {explanation.check_estimate:.4f}"
        )
        lines.append(
            f"  NN-filter estimate      : {explanation.nn_estimate:.4f}"
        )
    lines.append(f"  matching score          : {explanation.score:.4f}")
    lines.append(f"  relatedness             : {explanation.relatedness:.4f}")
    lines.append(f"  survives stages         : {', '.join(explanation.survives) or '(none)'}")
    lines.append(f"  verdict                 : {'RELATED' if explanation.related else 'not related'}")
    if explanation.alignment:
        lines.append("  alignment:")
        for pair in explanation.alignment:
            r_text = reference.elements[pair.reference_index].text
            s_text = candidate.elements[pair.candidate_index].text
            lines.append(
                f"    {r_text!r} <-> {s_text!r}  (phi = {pair.weight:.4f})"
            )
    return "\n".join(lines)
