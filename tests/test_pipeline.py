"""The staged pipeline: plans, stages, batches, and driver unification."""

import math

import pytest

from repro.baselines.brute_force import brute_force_discover
from repro.cluster import SilkMothCluster
from repro.core.config import Relatedness, SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.parallel import parallel_discover
from repro.core.partitioned import partitioned_discover
from repro.core.records import SetCollection
from repro.pipeline import CandidateBatch, QueryPlan, driver, size_range
from repro.service import SilkMothService
from strategies.kernels import LOADED_KERNEL_MODES, kernel_mode

SETS = [
    ["a b c", "d e"],
    ["a b c", "d f"],
    ["a b", "d e", "x"],
    ["x y", "z w"],
    ["a b c", "d e"],
]

#: External references for the drivers that take them.
REFS = [["a b c", "d e", "q"], ["x y"], ["d f", "a b c"]]

STAGE_NAMES = ("signature", "select", "check", "nn", "verify")


def _engine(config=None):
    collection = SetCollection.from_strings(SETS)
    return SilkMoth(collection, config or SilkMothConfig(delta=0.5))


class TestQueryPlan:
    def test_build_and_execute(self):
        engine = _engine()
        plan = engine.plan(engine.collection[0], skip_set=0)
        assert plan.theta == pytest.approx(1.0)
        assert plan.skip_set == 0
        assert [stage.name for stage in plan.stages] == list(STAGE_NAMES)
        results, stats = plan.execute()
        assert [r.set_id for r in results] == [
            r.set_id for r in engine.search(engine.collection[0], skip_set=0)
        ]
        assert stats.scheme == plan.scheme.name

    def test_execute_records_stage_timings(self):
        engine = _engine()
        _, stats = engine.search_with_stats(engine.collection[0], skip_set=0)
        assert set(stats.stage_seconds) == set(STAGE_NAMES)
        assert all(seconds >= 0.0 for seconds in stats.stage_seconds.values())

    def test_run_stats_aggregate_stage_timings(self):
        engine = _engine()
        engine.discover()
        assert set(engine.stats.stage_seconds) == set(STAGE_NAMES)
        # The last reference has no set after it: no pass (symmetric).
        assert engine.stats.passes == len(SETS) - 1

    def test_plan_is_reusable(self):
        engine = _engine()
        plan = engine.plan(engine.collection[0], skip_set=0)
        first, _ = plan.execute()
        second, _ = plan.execute()
        assert first == second

    def test_empty_reference_short_circuits(self):
        engine = _engine()
        reference = engine.reference_collection([[]])[0]
        results, stats = engine.search_with_stats(reference)
        assert results == []
        assert stats.stage_seconds == {}
        assert engine.stats.passes == 0

    def test_size_range_similarity(self):
        config = SilkMothConfig(delta=0.5)
        lo, hi = size_range(config, 4)
        assert lo == pytest.approx(2.0, abs=1e-6)
        assert hi == pytest.approx(8.0, abs=1e-6)

    def test_size_range_containment_unbounded_above(self):
        config = SilkMothConfig(metric=Relatedness.CONTAINMENT, delta=0.5)
        lo, hi = size_range(config, 4)
        assert lo == pytest.approx(2.0, abs=1e-6)
        assert hi == math.inf

    def test_size_range_disabled(self):
        config = SilkMothConfig(size_filter=False)
        assert size_range(config, 4) == (-math.inf, math.inf)

    def test_filters_disabled_still_exact_and_monotone(self):
        config = SilkMothConfig(delta=0.5, check_filter=False, nn_filter=False)
        engine = _engine(config)
        baseline = _engine()
        reference = engine.collection[0]
        assert [r.set_id for r in engine.search(reference, skip_set=0)] == [
            r.set_id for r in baseline.search(baseline.collection[0], skip_set=0)
        ]
        _, stats = engine.search_with_stats(reference, skip_set=0)
        assert (
            stats.initial_candidates
            == stats.after_check
            == stats.after_nn
            == stats.verified
        )


class TestCandidateBatch:
    def test_take_preserves_parallel_columns(self):
        batch = CandidateBatch(
            set_ids=[1, 3, 5],
            gains=[0.0, 0.5, 1.0],
            estimates=[1.0, 2.0, 3.0],
            best=[{0: 0.1}, {}, {1: 0.9}],
        )
        taken = batch.take([0, 2])
        assert taken.set_ids == [1, 5]
        assert taken.gains == [0.0, 1.0]
        assert taken.estimates == [1.0, 3.0]
        assert taken.best == [{0: 0.1}, {1: 0.9}]
        assert len(taken) == 2


class TestCrossDriverIdentity:
    """Every driver must return the same rows on the same workload."""

    @pytest.mark.parametrize("metric", list(Relatedness))
    def test_all_drivers_agree(self, metric, monkeypatch):
        config = SilkMothConfig(metric=metric, delta=0.4)
        collection = SetCollection.from_strings(SETS)
        serial = SilkMoth(collection, config).discover()
        rows = [(p.reference_id, p.set_id) for p in serial]
        scores = [pytest.approx(p.score) for p in serial]

        oracle = brute_force_discover(
            SetCollection.from_strings(SETS), config
        )
        assert [(p.reference_id, p.set_id) for p in oracle] == rows
        assert [p.score for p in oracle] == scores

        engine = SilkMoth(SetCollection.from_strings(SETS), config)
        references = engine.reference_collection(REFS)
        external = brute_force_discover(engine.collection, config, references)
        external_rows = [(p.reference_id, p.set_id) for p in external]
        external_scores = [pytest.approx(p.score) for p in external]
        assert external_rows

        # Every driver is the one schedule over its own runner: record
        # the pass list each one scheduled.
        scheduled = []
        schedule = driver.discovery_passes

        def spy(*args, **kwargs):
            scheduled.append(schedule(*args, **kwargs))
            return scheduled[-1]

        monkeypatch.setattr(driver, "discovery_passes", spy)
        runs = [engine.discover(), engine.discover(references)]
        for processes in (1, 2):
            runs.append(parallel_discover(SETS, config, processes=processes))
            runs.append(
                parallel_discover(
                    SETS, config, reference_sets=REFS, processes=processes
                )
            )
        for size in (1, 3, len(SETS)):
            runs.append(partitioned_discover(SETS, config, partition_size=size))
            runs.append(
                partitioned_discover(
                    SETS, config, partition_size=size, reference_sets=REFS
                )
            )
        with SilkMothCluster.from_sets(
            SETS, config, shards=2, transport="inline"
        ) as cluster:
            runs.append(cluster.discover())

        # Self-discovery runs at even positions, external ones at odd.
        for got in runs[::2]:
            assert [(p.reference_id, p.set_id) for p in got] == rows
            assert [p.score for p in got] == scores
        for got in runs[1::2]:
            assert [(p.reference_id, p.set_id) for p in got] == external_rows
            assert [p.score for p in got] == external_scores
        n = len(SETS)
        if metric is Relatedness.SIMILARITY:
            self_passes = [(r, r, r + 1) for r in range(n - 1)]
        else:
            self_passes = [(r, r, 0) for r in range(n)]
        assert scheduled[::2] == [self_passes] * 7
        assert scheduled[1::2] == [[(r, None, 0) for r in range(len(REFS))]] * 6

    def test_service_batch_matches_serial_search(self):
        config = SilkMothConfig(delta=0.4)
        collection = SetCollection.from_strings(SETS)
        engine = SilkMoth(SetCollection.from_strings(SETS), config)
        service = SilkMothService(config, collection)
        batches = service.search_many(SETS)
        for raw, batch in zip(SETS, batches):
            reference = engine.collection.query_set(raw)
            expected = engine.search(reference)
            assert [r.set_id for r in batch] == [r.set_id for r in expected]
            for mine, oracle in zip(batch, expected):
                assert mine.score == pytest.approx(oracle.score)

    def test_kernel_modes_agree_across_drivers(self):
        rows = {}
        config = SilkMothConfig(delta=0.4)
        for mode in LOADED_KERNEL_MODES:
            with kernel_mode(mode):
                rows[mode] = [
                    (p.reference_id, p.set_id, p.score)
                    for p in parallel_discover(SETS, config, processes=1)
                ]
        first, *rest = rows.values()
        for other in rest:
            assert other == first
