"""The adaptive query planner: one decision per (config, index) pair.

:func:`plan_query` is the single place where a SilkMoth configuration
is turned into the concrete choices a pass will run with:

1. **Gram length** -- resolve ``q=None`` to the evaluation's rule
   (:func:`repro.tokenize.tokenizers.max_q_for_alpha`) and record
   whether the paper's ``q < alpha / (1 - alpha)`` constraint holds.
2. **Signature scheme** -- resolve ``scheme="auto"`` through the cost
   model (:mod:`repro.planner.cost`), which only ever picks
   bound-family schemes, so automatic plans are exact for every q.
3. **Exactness gate** -- check the scheme's validity lemma
   (:mod:`repro.planner.validity`).  When the user pins a scheme whose
   argument does not hold for these parameters, the plan routes the
   pass through the exact full-scan fallback instead of silently
   dropping related sets (the pre-planner latent bug).

The resulting :class:`PlannerDecision` is immutable and threaded into
:class:`repro.pipeline.QueryPlan`, :class:`repro.core.stats.PassStats`,
the service snapshot metadata, and the ``silkmoth explain`` report --
every driver (serial, process-pool, partitioned, service, cluster
shard) is a schedule over a pass runner whose passes run on a
:class:`repro.core.engine.SilkMoth`, so one decision governs them all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SilkMothConfig
from repro.index.inverted import InvertedIndex
from repro.obs.trace import span
from repro.planner.cost import IndexProfile, choose_scheme
from repro.planner.validity import (
    max_prefix_valid_q,
    no_share_similarity_cap,
    q_constraint_satisfied,
    scheme_family,
    signature_scheme_valid,
)

#: ``SilkMothConfig.scheme`` sentinel that delegates scheme selection
#: to the cost model.
AUTO_SCHEME = "auto"


@dataclass(frozen=True)
class PlannerDecision:
    """Everything the planner decided for one (config, index) pair.

    Attributes
    ----------
    scheme:
        Resolved signature scheme registry name.
    scheme_source:
        ``"config"`` (user pinned it) or ``"auto"`` (cost model).
    q:
        Effective gram length (1 for the token kinds).
    q_source:
        ``"token"`` (kind needs no grams), ``"pinned"`` (user value) or
        ``"auto"`` (derived from alpha per Section 8.1).
    q_constraint_ok:
        Whether the paper's ``q < alpha / (1 - alpha)`` rule holds
        (vacuously True for the token kinds).
    signature_valid:
        Whether the resolved scheme's validity lemma holds for these
        parameters (see :mod:`repro.planner.validity`).
    full_scan:
        True when the plan must skip signature generation and compare
        the reference against every live set -- the exact fallback for
        invalid-signature configurations.
    reasons:
        Human-readable audit trail, one line per decision.
    profile:
        Index statistics the cost model saw (None when planned without
        an index).
    """

    scheme: str
    scheme_source: str
    q: int
    q_source: str
    q_constraint_ok: bool
    signature_valid: bool
    full_scan: bool
    reasons: tuple[str, ...]
    profile: IndexProfile | None = None

    @property
    def fallback_reason(self) -> str:
        """Why the pass full-scans, or ``""`` when signatures run."""
        if not self.full_scan:
            return ""
        return (
            f"planner: scheme {self.scheme!r} cannot certify Lemma 1 at "
            f"q={self.q}; exact full-scan fallback"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable summary (service metadata, CLI output)."""
        payload = {
            "scheme": self.scheme,
            "scheme_source": self.scheme_source,
            "q": self.q,
            "q_source": self.q_source,
            "q_constraint_ok": self.q_constraint_ok,
            "signature_valid": self.signature_valid,
            "full_scan": self.full_scan,
            "reasons": list(self.reasons),
        }
        if self.profile is not None:
            payload["profile"] = self.profile.to_dict()
        return payload


def plan_query(
    config: SilkMothConfig,
    index: InvertedIndex | None = None,
    scheme_override: str | None = None,
) -> PlannerDecision:
    """Validate *config* and resolve its open choices into a decision.

    Pure with respect to the data: the same (config, index statistics)
    always yields the same decision, and no signature is generated --
    planning one query costs microseconds (``planner.plan_s`` in
    ``benchmarks/e2e``).

    *scheme_override* plans for a scheme other than ``config.scheme``
    (source ``"caller"``) -- used when a caller hands
    :meth:`repro.pipeline.QueryPlan.build` a concrete scheme instance,
    so the exactness gate always judges the scheme that will actually
    run.
    """
    with span("planner.plan"):
        return _plan_query(config, index, scheme_override)


def _plan_query(
    config: SilkMothConfig,
    index: InvertedIndex | None,
    scheme_override: str | None,
) -> PlannerDecision:
    reasons: list[str] = []
    kind = config.similarity
    alpha = config.alpha

    # 1. Gram length.
    q = config.effective_q
    if kind.is_token_based:
        q_source = "token"
        reasons.append(f"{kind.value} tokenises to words; gram length fixed at 1")
    elif config.q is not None:
        q_source = "pinned"
        reasons.append(f"q={q} pinned by configuration")
    else:
        q_source = "auto"
        reasons.append(
            f"q={q} auto-selected: largest gram length satisfying "
            f"q < alpha/(1-alpha) for alpha={alpha:g} (Section 8.1)"
        )
    constraint_ok = kind.is_token_based or q_constraint_satisfied(alpha, q)
    if not constraint_ok:
        reasons.append(
            f"paper constraint q < alpha/(1-alpha) VIOLATED for alpha={alpha:g}, "
            f"q={q}: no-shared-gram pairs can score up to "
            f"{no_share_similarity_cap(kind, q):.3f}"
        )

    # 2. Index statistics (optional).
    profile = IndexProfile.from_index(index) if index is not None else None

    # 3. Signature scheme.
    if scheme_override is not None:
        scheme, scheme_source = scheme_override, "caller"
        reasons.append(f"scheme={scheme} supplied by the caller")
    elif config.scheme == AUTO_SCHEME:
        scheme, why = choose_scheme(config, profile)
        scheme_source = "auto"
        reasons.append(f"scheme={scheme} auto-selected: {why}")
    else:
        scheme, scheme_source = config.scheme, "config"
        reasons.append(f"scheme={scheme} pinned by configuration")

    # 4. Exactness gate.
    valid = signature_scheme_valid(scheme, kind, alpha, q)
    full_scan = not valid
    if valid:
        if not constraint_ok:
            reasons.append(
                f"scheme {scheme} uses {scheme_family(scheme)}-family bounds, "
                "which stay valid for any q; signatures remain exact"
            )
    else:
        safe_q = max_prefix_valid_q(kind, alpha)
        remedy = (
            f"choose q <= {safe_q}" if safe_q is not None else "no q is valid"
        )
        reasons.append(
            f"scheme {scheme} ({scheme_family(scheme)} family) cannot certify "
            f"Lemma 1 for alpha={alpha:g}, q={q}; routing through the exact "
            f"full-scan fallback ({remedy}, a bound-family scheme, or "
            "scheme='auto' to keep signatures)"
        )

    return PlannerDecision(
        scheme=scheme,
        scheme_source=scheme_source,
        q=q,
        q_source=q_source,
        q_constraint_ok=constraint_ok,
        signature_valid=valid,
        full_scan=full_scan,
        reasons=tuple(reasons),
        profile=profile,
    )
