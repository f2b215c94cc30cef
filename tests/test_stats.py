"""RunStats aggregation and its integration with the engine."""

from dataclasses import fields

import pytest

from repro.core.config import Relatedness, SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.core.stats import (
    PASS_COUNTERS,
    PER_PASS_WINDOW,
    PassStats,
    RunStats,
    fold,
)


class TestRunStatsAggregation:
    def test_add_accumulates_counters(self):
        run = RunStats()
        run.add(PassStats(signature_tokens=2, initial_candidates=5,
                          after_check=3, after_nn=2, verified=2, matches=1))
        run.add(PassStats(signature_tokens=1, initial_candidates=4,
                          after_check=4, after_nn=3, verified=3, matches=0,
                          full_scan=True))
        assert run.passes == 2
        assert run.signature_tokens == 3
        assert run.initial_candidates == 9
        assert run.after_check == 7
        assert run.after_nn == 5
        assert run.verified == 5
        assert run.matches == 1
        assert run.full_scans == 1
        assert len(run.per_pass) == 2

    def test_a_block_adds_as_its_passes_one_by_one(self):
        """``add(total, block)`` -- a runner's block and its fold -- is
        adding each pass: counters, scans, fallbacks and the window."""
        block = (
            PassStats(initial_candidates=4, matches=1, full_scan=True,
                      fallback_reason="invalid q"),
            PassStats(initial_candidates=2, verified=2, full_scan=True),
            PassStats(signature_tokens=3, sim_cache_hits=5),
        )
        for stats, seconds in zip(block, (0.5, 0.25, 0.125)):
            stats.stage_seconds = {"verify": seconds}
        one_by_one = RunStats()
        for stats in block:
            one_by_one.add(stats)
        total = PassStats()
        fold(total, *block)
        folded = RunStats()
        folded.add(total, block)
        assert folded == one_by_one
        assert (folded.passes, folded.full_scans, folded.planner_fallbacks) == (3, 2, 1)

    def test_pass_counters_declare_every_int_field(self):
        """A new int field on PassStats must join the declaration."""
        ints = tuple(f.name for f in fields(PassStats) if type(f.default) is int)
        assert PASS_COUNTERS == ints
        assert set(PASS_COUNTERS) <= {f.name for f in fields(RunStats)}

    def test_per_pass_keeps_the_latest_window(self):
        run = RunStats()
        passes = [PassStats(matches=i) for i in range(PER_PASS_WINDOW + 5)]
        for one_pass in passes:
            run.add(one_pass)
        assert run.passes == len(passes)
        assert run.matches == sum(range(len(passes)))
        assert run.per_pass == passes[5:]

    def test_fresh_stats_zeroed(self):
        run = RunStats()
        assert run.passes == 0
        assert run.verified == 0
        assert run.per_pass == []


class TestEngineStatsIntegration:
    def test_stats_accumulate_across_searches(self):
        sets = [["a b"], ["a b"], ["c d"]]
        collection = SetCollection.from_strings(sets)
        engine = SilkMoth(collection, SilkMothConfig(delta=0.7))
        engine.search(collection[0], skip_set=0)
        engine.search(collection[1], skip_set=1)
        assert engine.stats.passes == 2

    def test_discover_runs_one_pass_per_reference(self):
        sets = [["a b"], ["c d"], ["e f"]]
        collection = SetCollection.from_strings(sets)
        engine = SilkMoth(collection, SilkMothConfig(delta=0.7))
        engine.discover()
        # Under the symmetric metric a reference probes only the sets
        # after it, so the last one runs no pass ...
        assert engine.stats.passes == 2
        # ... and SET-CONTAINMENT, which is directional, runs them all.
        containment = SilkMoth(
            collection,
            SilkMothConfig(delta=0.7, metric=Relatedness.CONTAINMENT),
        )
        containment.discover()
        assert containment.stats.passes == 3

    def test_per_pass_funnel_monotone(self):
        sets = [["x y", "z w"], ["x y", "z q"], ["p p"], ["x y"]]
        collection = SetCollection.from_strings(sets)
        engine = SilkMoth(collection, SilkMothConfig(delta=0.5))
        engine.discover()
        for one_pass in engine.stats.per_pass:
            assert (
                one_pass.initial_candidates
                >= one_pass.after_check
                >= one_pass.after_nn
                >= one_pass.matches
            )

    def test_matches_equals_results(self):
        sets = [["a b"], ["a b"], ["a b c"]]
        collection = SetCollection.from_strings(sets)
        engine = SilkMoth(collection, SilkMothConfig(delta=0.5))
        results = engine.discover()
        assert len(results) == 3
        assert engine.stats.matches == len(results)
        assert [p.matches for p in engine.stats.per_pass] == [2, 1]
