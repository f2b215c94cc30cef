"""Human-readable plan reports for ``silkmoth explain`` and the API.

The planner's :class:`~repro.planner.planner.PlannerDecision` carries
machine-readable fields plus an audit trail of reason strings; this
module renders them as the fixed-width report printed by the CLI, by
``QueryPlan.describe()``, and by ``SilkMothService.plan_report()``.
"""

from __future__ import annotations

from repro.core.config import SilkMothConfig
from repro.planner.planner import PlannerDecision


def format_decision(
    decision: PlannerDecision, config: SilkMothConfig | None = None
) -> str:
    """Render one planner decision as a multi-line report."""
    lines = ["query plan"]
    if config is not None:
        lines.append(
            f"  metric / similarity     : {config.metric.value} / "
            f"{config.similarity.value}"
        )
        lines.append(
            f"  delta / alpha           : {config.delta:g} / {config.alpha:g}"
        )
    lines.append(
        f"  gram length q           : {decision.q} ({decision.q_source})"
    )
    lines.append(
        "  paper q-constraint      : "
        + ("satisfied" if decision.q_constraint_ok else "VIOLATED")
    )
    lines.append(
        f"  signature scheme        : {decision.scheme} "
        f"({decision.scheme_source})"
    )
    lines.append(
        "  signature validity      : "
        + ("provably exact" if decision.signature_valid else "NOT provable")
    )
    lines.append(
        "  candidate selection     : "
        + ("exact FULL SCAN (fallback)" if decision.full_scan else "signature probe")
    )
    if decision.profile is not None:
        profile = decision.profile
        lines.append(
            f"  index statistics        : {profile.live_sets} live sets, "
            f"{profile.total_elements} elements, "
            f"{profile.distinct_tokens} tokens, "
            f"skew {profile.skew:.1f}"
        )
    lines.append("  reasons:")
    for reason in decision.reasons:
        lines.append(f"    - {reason}")
    return "\n".join(lines)


def format_stage_list(decision: PlannerDecision, config: SilkMothConfig) -> str:
    """One line per pipeline stage, annotated with the plan's choices."""
    if decision.full_scan:
        select = "select    : full scan over live sets (size-gated)"
        signature = "signature : skipped (planner fallback)"
    else:
        signature = f"signature : {decision.scheme}"
        select = "select    : index probe with signature tokens"
    check = "check     : " + ("on" if config.check_filter else "off (disabled)")
    if decision.full_scan:
        check = "check     : no-op (full scan)"
    nn = "nn        : " + ("on" if config.nn_filter else "off (disabled)")
    if decision.full_scan:
        nn = "nn        : no-op (full scan)"
    verify = "verify    : exact maximum matching"
    return "\n".join(
        "  " + line for line in (signature, select, check, nn, verify)
    )
