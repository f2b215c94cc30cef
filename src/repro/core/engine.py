"""The SilkMoth engine: the search pass of Figure 1 and both modes.

A :class:`SilkMoth` instance owns a searched collection S and its
inverted index.  :meth:`search` runs one pass for a reference set
(RELATED SET SEARCH); :meth:`discover` runs a pass per reference set
(RELATED SET DISCOVERY).  The output is exact: identical to brute force
for every configuration (Lemma 1 guarantees the signatures are valid,
Sections 5.1-5.2 that the filters only drop provably unrelated sets).

Every pass is a :class:`repro.pipeline.QueryPlan` (signature ->
candidate-select -> check -> nn-filter -> verify) that shares what the
engine plans once (:meth:`replan`).  :meth:`run_passes` is the *engine
runner* of :mod:`repro.pipeline.driver` -- discovery, each partition of
partitioned discovery, the service's serial cold path and each pool
worker run it -- and observes its block of passes once, so there is
exactly one query path.

Every engine is planner-gated: :func:`repro.planner.plan_query`
resolves ``scheme="auto"`` from index statistics and -- crucially for
exactness -- routes configurations whose scheme cannot certify Lemma 1
(edit similarity with an out-of-constraint gram length) through an
exact full scan instead of silently dropping related sets.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from repro.backends import get_backend
from repro.core.config import Relatedness, SilkMothConfig
from repro.core.constants import EPSILON  # noqa: F401  (re-export: legacy import site)
from repro.core.records import SetCollection, SetRecord
from repro.core.results import (  # noqa: F401  (re-exports: legacy import sites)
    DiscoveryResult,
    SearchResult,
    relatedness_value,
)
from repro.core.stats import PassStats, RunStats, fold
from repro.index.inverted import InvertedIndex
from repro.obs.diag import observe_slow_pass
from repro.obs.instrument import observe_pass
from repro.pipeline.driver import LocalIds, Pass, run_discovery
from repro.pipeline.plan import QueryPlan, pipeline_stages
from repro.planner.planner import PlannerDecision, plan_query
from repro.planner.report import format_decision
from repro.settings import resolve
from repro.signatures import get_scheme
from repro.signatures.base import SignedReference
from repro.sim.memo import SimilarityMemo

#: Re-plan (cost model only) once the live-set count grows to this
#: multiple of the count the current decision was computed at.
REPLAN_GROWTH_FACTOR = 2


def compaction_threshold(dead_fraction: float) -> float:
    """*dead_fraction* if it is a valid auto-compaction threshold, in
    (0, 1]; :class:`ValueError` otherwise."""
    if not 0.0 < dead_fraction <= 1.0:
        raise ValueError(
            f"compact_dead_fraction must be in (0, 1], got {dead_fraction}"
        )
    return dead_fraction


class SilkMoth:
    """Related-set search over one indexed collection.

    Parameters
    ----------
    collection:
        The searched collection S.  Its vocabulary is shared with any
        reference collection built through :meth:`reference_collection`.
    config:
        Thresholds, metric, scheme and optimisation toggles.
    """

    def __init__(
        self,
        collection: SetCollection,
        config: SilkMothConfig,
        index: InvertedIndex | None = None,
    ):
        if collection.tokenizer.kind is not config.similarity:
            raise ValueError(
                "collection was tokenised for "
                f"{collection.tokenizer.kind}, config wants {config.similarity}"
            )
        if (
            config.similarity.is_edit_based
            and collection.tokenizer.q != config.effective_q
        ):
            raise ValueError(
                f"collection tokenised with q={collection.tokenizer.q}, "
                f"config wants q={config.effective_q}"
            )
        if index is not None and index.collection is not collection:
            raise ValueError("prebuilt index was built over a different collection")
        self.collection = collection
        self.config = config
        self.phi = config.phi
        self.index = index if index is not None else InvertedIndex(collection)
        self.backend = get_backend()
        #: Cross-stage element-pair similarity memo (edit kinds only):
        #: shared by every pass this engine runs, so exact phi values
        #: computed by the check/NN filters are reused by verification
        #: and by later queries.  ``None`` for the token kinds.
        self.memo: SimilarityMemo | None = None
        if config.similarity.is_edit_based:
            self.memo = SimilarityMemo(
                resolve("SILKMOTH_SIM_CACHE", config.sim_cache_size)
            )
        self.stats = RunStats()
        self.replan()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def reference_collection(self, sets: Iterable[Sequence[str]]) -> SetCollection:
        """Tokenise raw reference sets consistently with the indexed data."""
        sibling = self.collection.sibling()
        for elements in sets:
            sibling.add_set(elements)
        return sibling

    def add_set(self, elements: Sequence[str]) -> SetRecord:
        """Append one set to the searched collection and index it.

        Incremental ingestion: subsequent searches see the new set
        immediately, with no index rebuild (Section 3 builds the index
        once; this extends it record by record).  Growth past
        :data:`REPLAN_GROWTH_FACTOR` times the live count the decision
        was made at re-plans: an insert-only collection never compacts.
        """
        record = self.collection.add_set(elements)
        self.index.add_record(record)
        self._clear_memo()
        live = self.collection.live_count
        if live >= max(1, self._planned_live_sets) * REPLAN_GROWTH_FACTOR:
            self.replan()
        return record

    def remove_set(self, set_id: int) -> SetRecord:
        """Tombstone one set (:class:`KeyError` unless it is live).

        Its postings stay in the index until :meth:`compact` (lazy
        deletion); candidate selection skips them from now on.
        """
        record = self.collection.remove_set(set_id)
        self.index.note_removed(record)
        self._clear_memo()
        return record

    def compact(self) -> int:
        """Drop tombstoned postings from the index; returns how many.

        When postings went, the cost model's statistics drifted, so the
        engine re-plans (exactness never depends on the plan).
        """
        removed = self.index.compact()
        if removed:
            self.replan()
            self._clear_memo()
        return removed

    def _clear_memo(self) -> None:
        """Every write drops the pair memo (:mod:`repro.sim.memo`)."""
        if self.memo is not None:
            self.memo.clear()

    def plan(
        self,
        reference: SetRecord | SignedReference,
        skip_set: int | None = None,
        first_set: int = 0,
    ) -> QueryPlan:
        """The staged :class:`QueryPlan` of one pass, sharing what
        :meth:`replan` built; ``plan(...).describe()`` renders the same
        report as ``silkmoth explain``.  *skip_set* excludes one set id
        and *first_set* every id below it (the discovery drivers'
        self-skip and candidate floor, :mod:`repro.pipeline.driver`).
        """
        return QueryPlan.build(
            reference, self.config, self.collection, self.index,
            scheme=self.scheme, backend=self.backend, decision=self.decision,
            memo=self.memo, phi=self.phi, stages=self.stages,
            skip_set=skip_set, first_set=first_set,
        )

    def replan(self) -> PlannerDecision:
        """Recompute the planner decision, scheme and stages every pass
        shares from current index statistics.

        Construction, :meth:`compact` and growth (:meth:`add_set`) call
        this: validity never changes -- it is parameter arithmetic --
        but the cost model's scheme choice may.
        """
        self.decision = plan_query(self.config, self.index)
        self.scheme = get_scheme(self.decision.scheme)
        self.stages = pipeline_stages(self.decision, self.config)
        #: Live-set count the current planner decision was computed at;
        #: growth past REPLAN_GROWTH_FACTOR of it triggers a re-plan.
        self._planned_live_sets = self.collection.live_count
        return self.decision

    def plan_report(self) -> str:
        """Human-readable report of this engine's planner decision."""
        return format_decision(self.decision, self.config)

    def search(
        self,
        reference: SetRecord,
        skip_set: int | None = None,
        first_set: int = 0,
    ) -> list[SearchResult]:
        """All sets S related to *reference*: one search pass of Figure 1.

        The pass considers the live sets with id >= *first_set* other
        than *skip_set*; both default to "the whole collection".
        """
        results, _ = self.search_with_stats(
            reference, skip_set=skip_set, first_set=first_set
        )
        return results

    def search_with_stats(
        self,
        reference: SetRecord | SignedReference,
        skip_set: int | None = None,
        first_set: int = 0,
    ) -> tuple[list[SearchResult], PassStats]:
        """:meth:`search` plus the pass's funnel counters (a block of one)."""
        block: list = []
        answer = self._search(reference, skip_set, first_set, block)
        self._observe(block)
        return answer

    def run_passes(
        self,
        passes: Sequence[Pass],
        references: Sequence[SetRecord | SignedReference],
        ids: LocalIds | None = None,
    ) -> list[tuple[list[SearchResult], PassStats | None]]:
        """The engine runner: each ``(reference_id, skip, floor)`` pass in
        turn on ``references[reference_id]``, through *ids* (this
        engine's set ids -> the global ones; default the identity),
        observed as one block (:meth:`_observe`) when it is done."""
        if ids is None:
            ids = LocalIds(range(len(self.collection)))
        answers: list[tuple[list[SearchResult], PassStats | None]] = []
        block: list = []
        try:
            for reference_id, skip, floor in passes:
                local = ids.local_pass(skip, floor)
                if local is None:
                    answers.append(([], None))
                    continue
                results, stats = self._search(
                    references[reference_id], local[0], local[1], block
                )
                answers.append((ids.to_global(results), stats))
        finally:  # the passes that ran count even if a later one raised
            self._observe(block)
        return answers

    def _search(
        self, reference, skip_set: int | None, first_set: int, block: list
    ) -> tuple[list[SearchResult], PassStats]:
        """One pass; a pass that ran joins *block* with ``|R|`` and its end."""
        if len(reference) == 0:
            return [], PassStats(scheme=self.scheme.name)
        results, stats = self.plan(reference, skip_set, first_set).execute()
        block.append((stats, len(reference), time.time()))
        return results, stats

    def _observe(self, block: list) -> None:
        """Fold a block once into :attr:`stats`, the metrics and the slowlog."""
        if not block:
            return
        passes = tuple(stats for stats, _, _ in block)
        total = PassStats()
        fold(total, *passes)
        self.stats.add(total, passes)
        observe_pass(total, passes)
        observe_slow_pass(block, self.decision)

    def discover(
        self, references: SetCollection | None = None
    ) -> list[DiscoveryResult]:
        """RELATED SET DISCOVERY: all related pairs R x S.

        With ``references=None`` (self-discovery, R = S) each unordered
        pair is reported once under SET-SIMILARITY (which is symmetric:
        a reference's pass probes only the sets after it) and both
        directions are searched under SET-CONTAINMENT; self pairs are
        always excluded.  External *references* must come from
        :meth:`reference_collection` (else ``ValueError``).  This is
        :func:`repro.pipeline.driver.run_discovery` over
        :meth:`run_passes`.
        """
        self_mode = references is None
        refs = self.collection if self_mode else references
        return run_discovery(
            lambda passes: self.run_passes(passes, refs),
            [reference.set_id for reference in refs.iter_live()],
            n_sets=len(self.collection),
            self_mode=self_mode,
            symmetric=self.config.metric is Relatedness.SIMILARITY,
            references=None if self_mode else refs,
            searched=self.collection,
        )
