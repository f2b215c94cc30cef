"""The five pipeline stages (paper Figure 1, Sections 4-5).

Each stage consumes the shared :class:`PipelineState` -- most
importantly its columnar :class:`~repro.pipeline.batch.CandidateBatch`
-- refines it, and records its funnel counter on the pass's
:class:`~repro.core.stats.PassStats`.  Disabled filters still run as
no-ops so the counters keep their invariant
``initial >= after_check >= after_nn == verified`` for every
configuration.

Stage order is fixed (signature -> select -> check -> nn -> verify);
what varies per :class:`~repro.pipeline.plan.QueryPlan` is which
filters are enabled.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING

from repro.core.constants import EPSILON
from repro.core.results import SearchResult, relatedness_value
from repro.core.stats import PassStats
from repro.filters.check import Witnessed, check_columns, select_columns
from repro.filters.nearest_neighbor import nn_filter_columns
from repro.matching.reduction import reduced_matching_score
from repro.matching.score import edit_weight_matrices, matching_score
from repro.pipeline.batch import CandidateBatch
from repro.signatures.base import Signature, SignedReference

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.plan import QueryPlan


@dataclass
class PipelineState:
    """Mutable state threaded through one pass's stages."""

    signature: Signature | None = None
    signed: SignedReference | None = None
    full_scan: bool = False
    #: The select stage's gated surfaced set ids (ascending) and, on a
    #: probed pass, the witnessed rows among them.
    surfaced: list[int] = field(default_factory=list)
    witnessed: Witnessed | None = None
    batch: CandidateBatch = field(default_factory=CandidateBatch)
    results: list[SearchResult] = field(default_factory=list)


class Stage(abc.ABC):
    """One step of the staged query pipeline."""

    #: Stage name -- the key under ``PassStats.stage_seconds``.
    name: str = "abstract"

    def __init_subclass__(cls) -> None:
        cls.span_name = f"stage.{cls.name}"  # its trace span, named once

    def __init__(self, enabled: bool = True):
        #: Off, a filter stage runs as a no-op (its counter still set).
        self.enabled = enabled

    @abc.abstractmethod
    def run(self, plan: "QueryPlan", state: PipelineState, stats: PassStats) -> None:
        """Advance *state* by one stage, recording counters on *stats*."""


class SignatureStage(Stage):
    """Generate the reference's signature (Sections 4, 6, 7).

    A ``None`` signature means the scheme admits no valid signature for
    these parameters (possible for edit similarity when q is too large,
    Section 7.3); the select stage then falls back to a full scan.

    The stage is disabled entirely when the query planner determined
    the scheme cannot certify Lemma 1 for the configured ``(similarity,
    alpha, q)`` -- e.g. a prefix-style scheme with an out-of-constraint
    gram length -- which forces the same exact full scan without
    generating a misleading (invalid) signature.  A plan built from a
    signed reference carries its signature: nothing is signed.
    """

    name = "signature"

    def run(self, plan: "QueryPlan", state: PipelineState, stats: PassStats) -> None:
        """Generate the signature unless the planner disabled the stage."""
        if not self.enabled:
            return
        signed = plan.source
        if not isinstance(signed, SignedReference):
            signed = SignedReference(signed, plan.scheme.generate(
                signed, plan.theta - EPSILON, plan.phi, plan.index
            ))
        state.signed = signed
        state.signature = signed.signature
        if signed.signature is not None:
            stats.signature_tokens = len(signed.signature.tokens)


class CandidateSelectStage(Stage):
    """Probe the index with the signature for the surfaced ids and the
    witnessed rows, which the check stage turns into the batch.

    Without a signature this degrades to scanning every live set,
    size-gated, straight into the batch.  Either way only
    sets at or above the plan's ``first_set`` floor become candidates.
    """

    name = "select"

    def run(self, plan: "QueryPlan", state: PipelineState, stats: PassStats) -> None:
        """Probe the index (or scan every live set into a batch)."""
        lo, hi = plan.size_range
        if state.signature is None:
            state.full_scan = True
            stats.full_scan = True
            set_ids = [
                record.set_id
                for record in plan.collection.iter_live()
                if record.set_id != plan.skip_set
                and record.set_id >= plan.first_set
                and lo <= len(record) <= hi
            ]
            state.surfaced = set_ids
            state.batch = CandidateBatch(
                set_ids=set_ids,
                gains=[0.0] * len(set_ids),
                estimates=[float("inf")] * len(set_ids),
                best=[{} for _ in set_ids],
            )
        else:
            state.surfaced, state.witnessed = select_columns(
                plan.reference,
                state.signature,
                plan.index,
                plan.phi,
                plan.collection,
                size_range=plan.size_range,
                skip_set=plan.skip_set,
                first_set=plan.first_set,
                backend=plan.backend,
                memo=plan.memo,
                pass_stats=stats,
            )
        stats.initial_candidates = len(state.surfaced)


class CheckFilterStage(Stage):
    """The check filter (Section 5.1) on a probed pass: builds the batch.

    Each candidate's score upper bound is the signature residual plus
    its witnessed gain (:func:`~repro.filters.check.check_columns`);
    while the residual alone is below the cutoff only the witnessed
    rows are read.  Disabled, every surfaced set enters the batch.
    """

    name = "check"

    def run(self, plan: "QueryPlan", state: PipelineState, stats: PassStats) -> None:
        """Prune the surfaced sets against theta by residual + witnessed gains."""
        if not state.full_scan:
            set_ids, gains, estimates, best = check_columns(
                state.surfaced,
                state.witnessed,
                sum(state.signature.element_bounds),
                plan.theta - EPSILON,
                self.enabled,
            )
            state.batch = CandidateBatch(set_ids, gains, estimates, best)
        stats.after_check = len(state.batch)


class NNFilterStage(Stage):
    """The nearest-neighbour filter (Section 5.2, Algorithm 2)."""

    name = "nn"

    def run(self, plan: "QueryPlan", state: PipelineState, stats: PassStats) -> None:
        """Refine surviving bounds with exact NN searches and prune."""
        if self.enabled and not state.full_scan and len(state.batch):
            keep, estimates = nn_filter_columns(
                plan.reference,
                state.batch.set_ids,
                state.batch.best,
                state.signature.element_bounds,
                plan.theta - EPSILON,
                plan.index,
                plan.phi,
                plan.collection,
                q=plan.config.effective_q,
            )
            state.batch = state.batch.take(keep)
            state.batch.estimates = estimates
        stats.after_nn = len(state.batch)


class VerifyStage(Stage):
    """Exact verification: maximum matching score per survivor.

    Uses reduction-based verification (Section 5.3) where it is sound;
    otherwise edit kinds get all survivors' weight matrices from one
    batch per block of survivors (:func:`edit_weight_matrices`).
    """

    name = "verify"

    def run(self, plan: "QueryPlan", state: PipelineState, stats: PassStats) -> None:
        """Score every survivor exactly and emit the related ones."""
        config = plan.config
        use_reduction = (
            config.reduction
            and plan.phi.alpha == 0.0
            and plan.phi.kind.supports_reduction
        )
        ref_size = len(plan.reference)
        candidates = [plan.collection[set_id] for set_id in state.batch.set_ids]
        if plan.phi.kind.is_edit_based and not use_reduction:
            matrices = edit_weight_matrices(
                plan.reference,
                candidates,
                plan.phi,
                plan.backend,
                config.effective_q,
                plan.memo,
            )
        else:
            matrices = repeat(None)
        results: list[SearchResult] = []
        for candidate, weights in zip(candidates, matrices):
            stats.verified += 1
            if use_reduction:
                score = reduced_matching_score(
                    plan.reference,
                    candidate,
                    plan.phi,
                    backend=plan.backend,
                    memo=plan.memo,
                )
            else:
                score = matching_score(
                    plan.reference,
                    candidate,
                    plan.phi,
                    backend=plan.backend,
                    memo=plan.memo,
                    weights=weights,
                )
            value = relatedness_value(
                config.metric, score, ref_size, len(candidate)
            )
            if value >= config.delta - EPSILON:
                results.append(SearchResult(candidate.set_id, score, value))
        stats.matches = len(results)
        state.results = results
