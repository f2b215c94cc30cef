"""Query plans: one pass of the staged pipeline.

A :class:`QueryPlan` binds everything a search pass needs -- reference,
thresholds, collection, index, signature scheme, compute backend, the
planner's :class:`~repro.planner.PlannerDecision`, and the stage
sequence -- so every driver executes the *same* code path.  An engine
plans all but the reference, skip and floor once, and every pass's
plan shares it.

Plans are planner-gated: when the decision says the configured
signature scheme cannot certify Lemma 1 for these parameters (an
out-of-constraint edit-similarity q under a prefix-style scheme), the
signature stage is disabled and the pass runs the exact full-scan
path -- same results as brute force, reported via
``PassStats.fallback_reason`` and :meth:`QueryPlan.describe`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.backends import get_backend
from repro.backends.base import ComputeBackend
from repro.core.config import Relatedness, SilkMothConfig
from repro.core.constants import EPSILON
from repro.core.records import SetCollection, SetRecord
from repro.core.results import SearchResult
from repro.core.stats import PassStats
from repro.index.inverted import InvertedIndex
from repro.obs.trace import span
from repro.planner.planner import PlannerDecision, plan_query
from repro.planner.report import format_decision, format_stage_list
from repro.pipeline.stages import (
    CandidateSelectStage,
    CheckFilterStage,
    NNFilterStage,
    PipelineState,
    SignatureStage,
    Stage,
    VerifyStage,
)
from repro.sim.functions import SimilarityFunction
from repro.sim.memo import SimilarityMemo
from repro.signatures import get_scheme
from repro.signatures.base import SignatureScheme, SignedReference


def size_range(config: SilkMothConfig, reference_size: int) -> tuple[float, float]:
    """Cardinality bounds a candidate must satisfy (footnote 6).

    SET-SIMILARITY: ``delta * |R| <= |S| <= |R| / delta``.
    SET-CONTAINMENT: ``|S| >= delta * |R|`` (score is at most |S|).
    """
    if not config.size_filter:
        return (-math.inf, math.inf)
    delta = config.delta
    if config.metric is Relatedness.SIMILARITY:
        return (
            delta * reference_size - EPSILON,
            reference_size / delta + EPSILON,
        )
    return (delta * reference_size - EPSILON, math.inf)


def pipeline_stages(
    decision: PlannerDecision, config: SilkMothConfig
) -> tuple[Stage, ...]:
    """The stage tuple of a pass under *decision* and *config*; stages
    keep no per-pass state, so an engine's passes share one."""
    return (
        SignatureStage(enabled=not decision.full_scan),
        CandidateSelectStage(),
        CheckFilterStage(enabled=config.check_filter),
        NNFilterStage(enabled=config.nn_filter),
        VerifyStage(),
    )


@dataclass(frozen=True)
class QueryPlan:
    """One (reference, config) search pass, ready to execute.

    Instances are cheap (no signature is generated until the plan
    runs), immutable, and reusable: executing twice runs two identical
    passes.
    """

    #: The reference record, or a signed reference to probe with.
    source: SetRecord | SignedReference
    config: SilkMothConfig
    collection: SetCollection
    index: InvertedIndex
    scheme: SignatureScheme
    phi: SimilarityFunction
    backend: ComputeBackend
    theta: float
    size_range: tuple[float, float]
    skip_set: int | None
    stages: tuple[Stage, ...]
    #: Candidate floor: the pass considers only the live sets with
    #: id >= ``first_set`` (0 = the whole collection).  Set by
    #: symmetric self-discovery
    #: (:func:`repro.pipeline.driver.discovery_floor`) and by the
    #: refresh of a stale cached answer (the sets added since it was
    #: cached, :class:`repro.service.batch.QueryFront`), and honoured
    #: where candidates are born -- the select stage's posting runs
    #: and its full scan -- so every later stage only ever sees
    #: surfaced ids.
    first_set: int = 0
    decision: PlannerDecision | None = None
    #: Cross-stage element-pair similarity memo (edit kinds only;
    #: ``None`` disables memoization for the pass).
    memo: SimilarityMemo | None = None

    @property
    def reference(self) -> SetRecord:
        """The reference record the pass searches for."""
        source = self.source
        return source.record if isinstance(source, SignedReference) else source

    @classmethod
    def build(
        cls,
        reference: SetRecord | SignedReference,
        config: SilkMothConfig,
        collection: SetCollection,
        index: InvertedIndex,
        scheme: SignatureScheme | None = None,
        backend: ComputeBackend | None = None,
        skip_set: int | None = None,
        decision: PlannerDecision | None = None,
        memo: SimilarityMemo | None = None,
        first_set: int = 0,
        phi: SimilarityFunction | None = None,
        stages: tuple[Stage, ...] | None = None,
    ) -> "QueryPlan":
        """Assemble the stage sequence for one reference under *config*.

        *reference* is a record or a :class:`SignedReference`.  An
        engine passes what its passes share: *decision*, *scheme*,
        *backend*, *memo*, *phi* and *stages*.  A direct caller gets each
        built on the spot (and no memo), a scheme it supplies planned for
        (and exactness-gated) by its own name, never ``config.scheme``.
        *skip_set* and *first_set* narrow the candidates to the live sets
        with id >= *first_set* other than *skip_set*.
        """
        if decision is None:
            decision = plan_query(
                config,
                index,
                scheme_override=None if scheme is None else scheme.name,
            )
        elif scheme is not None and scheme.name != decision.scheme:
            raise ValueError(
                f"scheme {scheme.name!r} does not match the planner "
                f"decision's scheme {decision.scheme!r}"
            )
        if scheme is None:
            scheme = get_scheme(decision.scheme)
        if backend is None:
            backend = get_backend()
        return cls(
            source=reference,
            config=config,
            collection=collection,
            index=index,
            scheme=scheme,
            phi=config.phi if phi is None else phi,
            backend=backend,
            theta=config.delta * len(reference),
            size_range=size_range(config, len(reference)),
            skip_set=skip_set,
            first_set=first_set,
            decision=decision,
            memo=memo,
            stages=pipeline_stages(decision, config) if stages is None else stages,
        )

    def describe(self) -> str:
        """The human-readable plan report (planner decision + stages)."""
        if self.decision is None:
            return "query plan\n  (built without a planner decision)"
        return (
            format_decision(self.decision, self.config)
            + "\n  stages:\n"
            + format_stage_list(self.decision, self.config)
        )

    def execute(self) -> tuple[list[SearchResult], PassStats]:
        """Run the pass; returns results and its funnel/timing stats."""
        stats = PassStats(scheme=self.scheme.name)
        if self.decision is not None and self.decision.full_scan:
            stats.fallback_reason = self.decision.fallback_reason
        reference = self.reference
        if len(reference) == 0:
            return [], stats
        memo = self.memo
        hits_before = memo.hits if memo is not None else 0
        misses_before = memo.misses if memo is not None else 0
        state = PipelineState()
        timings = stats.stage_seconds
        clock = time.perf_counter
        with span("pipeline.pass", scheme=stats.scheme) as pass_span:
            for stage in self.stages:
                started = clock()
                with span(stage.span_name):
                    stage.run(self, state, stats)
                timings[stage.name] = clock() - started
            pass_span.set_attr("matches", stats.matches)
        # Only a query reference's answer is cached (``query_set``: id
        # -1, no set of the collection), floored or not, so only its
        # pass hands back its signed reference.
        if reference.set_id < 0:
            stats.signed = state.signed
        if memo is not None:
            stats.sim_cache_hits = memo.hits - hits_before
            stats.sim_cache_misses = memo.misses - misses_before
        return state.results, stats
