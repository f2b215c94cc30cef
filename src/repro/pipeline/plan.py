"""Query plans: one pass of the staged pipeline, built once, run once.

A :class:`QueryPlan` binds everything a search pass needs -- reference,
thresholds, collection, index, signature scheme, compute backend, the
planner's :class:`~repro.planner.PlannerDecision`, and the stage
sequence -- so every driver (serial engine, process-pool discovery,
partitioned discovery, the online service) executes the *same* code
path.  Exactness arguments, funnel counters and future optimisations
therefore live in exactly one place.

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
from repro.obs.diag import observe_slow_pass
from repro.obs.instrument import observe_pass
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
from repro.settings import resolve
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
    ) -> "QueryPlan":
        """Assemble the stage sequence for one reference under *config*.

        *reference* is a record or a :class:`SignedReference`.
        *decision* is the planner verdict governing the pass; the
        engine passes its own (computed once per engine), while direct
        callers get one planned on the spot.  *scheme* defaults to the
        decision's choice and *backend* to the process-wide one
        (:func:`repro.backends.get_backend`); a caller-supplied scheme is
        planned for (and exactness-gated) by its own name, never by
        ``config.scheme``.  *memo* is the engine's cross-stage
        similarity cache; ``None`` builds a fresh one per plan for the
        edit kinds (sized by the config knob) so even direct callers
        get within-pass reuse.  *skip_set* and *first_set* narrow the
        candidates to the live sets with id >= *first_set* other than
        *skip_set*.
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
        if memo is None and config.similarity.is_edit_based:
            memo = SimilarityMemo(
                resolve("SILKMOTH_SIM_CACHE", config.sim_cache_size)
            )
        return cls(
            source=reference,
            config=config,
            collection=collection,
            index=index,
            scheme=scheme,
            phi=config.phi,
            backend=backend,
            theta=config.delta * len(reference),
            size_range=size_range(config, len(reference)),
            skip_set=skip_set,
            first_set=first_set,
            decision=decision,
            memo=memo,
            stages=(
                SignatureStage(enabled=not decision.full_scan),
                CandidateSelectStage(),
                CheckFilterStage(enabled=config.check_filter),
                NNFilterStage(enabled=config.nn_filter),
                VerifyStage(),
            ),
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
        if len(self.reference) == 0:
            return [], stats
        memo = self.memo
        hits_before = memo.hits if memo is not None else 0
        misses_before = memo.misses if memo is not None else 0
        state = PipelineState()
        timings = stats.stage_seconds
        with span("pipeline.pass", scheme=stats.scheme) as pass_span:
            for stage in self.stages:
                started = time.perf_counter()
                with span(f"stage.{stage.name}"):
                    stage.run(self, state, stats)
                timings[stage.name] = (
                    timings.get(stage.name, 0.0) + time.perf_counter() - started
                )
            pass_span.set_attr("matches", stats.matches)
        # Only a query reference's answer is cached (``query_set``: id
        # -1, no set of the collection), floored or not, so only its
        # pass hands back its signed reference.
        if self.reference.set_id < 0:
            stats.signed = state.signed
        if memo is not None:
            stats.sim_cache_hits = memo.hits - hits_before
            stats.sim_cache_misses = memo.misses - misses_before
        observe_pass(stats)
        observe_slow_pass(stats, self.decision, len(self.reference))
        return state.results, stats
