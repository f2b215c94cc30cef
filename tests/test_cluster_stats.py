"""Merge accounting for ``ClusterPassStats`` / ``ClusterStats``.

Pins the bookkeeping invariants under mixed fan-out outcomes and
mutation programs: merged funnel counters are exactly the per-shard
sums, routed/skipped totals follow the fan-out verdicts, and the
live-cluster lifetime counters agree with a query-by-query replay.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.cluster import SilkMothCluster
from repro.cluster.stats import ClusterPassStats, ClusterStats, merge_pass_stats
from repro.core.config import SilkMothConfig
from repro.core.stats import PassStats
from repro.sim.functions import SimilarityKind
from strategies import clustered_edit_sets

_SELECT_COUNTERS = (
    "select_postings_scanned",
    "select_distinct_pairs",
    "select_size_gate_drops",
)


def _pass(scheme="dichotomy", **counters) -> PassStats:
    stats = PassStats(scheme=scheme)
    for name, value in counters.items():
        setattr(stats, name, value)
    return stats


class TestMergePassStats:
    def test_counters_sum_across_shards(self):
        merged = merge_pass_stats(
            [
                _pass(
                    initial_candidates=5,
                    after_check=4,
                    after_nn=3,
                    verified=2,
                    matches=1,
                    sim_cache_hits=7,
                    sim_cache_misses=2,
                ),
                _pass(
                    initial_candidates=10,
                    after_check=8,
                    after_nn=6,
                    verified=4,
                    matches=2,
                    sim_cache_hits=3,
                    sim_cache_misses=1,
                ),
            ]
        )
        assert merged.initial_candidates == 15
        assert merged.after_check == 12
        assert merged.after_nn == 9
        assert merged.verified == 6
        assert merged.matches == 3
        assert merged.sim_cache_hits == 10
        assert merged.sim_cache_misses == 3
        assert merged.scheme == "dichotomy"

    def test_every_int_field_sums_across_shards(self):
        """No counter is dropped by the merge, the select funnel included."""
        names = [f.name for f in fields(PassStats) if type(f.default) is int]
        first = _pass(**{name: 1 + i for i, name in enumerate(names)})
        second = _pass(**{name: 100 * (1 + i) for i, name in enumerate(names)})
        merged = merge_pass_stats([first, second])
        for name in names:
            assert getattr(merged, name) == (
                getattr(first, name) + getattr(second, name)
            ), name

    def test_disagreeing_labels_read_mixed(self):
        merged = merge_pass_stats(
            [_pass(scheme="exhaustive"), _pass(scheme="dichotomy")]
        )
        assert merged.scheme == "mixed"

    def test_stage_seconds_add(self):
        a = _pass()
        a.stage_seconds = {"verify": 0.25, "check": 0.5}
        b = _pass()
        b.stage_seconds = {"verify": 0.75}
        merged = merge_pass_stats([a, b])
        assert merged.stage_seconds["verify"] == pytest.approx(1.0)
        assert merged.stage_seconds["check"] == pytest.approx(0.5)

    def test_empty_merge_is_blank(self):
        merged = merge_pass_stats([])
        assert merged.scheme == ""
        assert merged.initial_candidates == 0


class TestClusterPassStats:
    def test_from_shards_routing_arithmetic(self):
        pass_stats = ClusterPassStats.from_shards(
            4, [(1, _pass(matches=2)), (3, _pass(matches=1))]
        )
        assert pass_stats.shards_total == 4
        assert pass_stats.shards_routed == 2
        assert pass_stats.shards_skipped == 2
        assert pass_stats.merged.matches == 3
        assert [index for index, _ in pass_stats.per_shard] == [1, 3]


class TestClusterStatsAccounting:
    def test_mixed_program_totals(self):
        stats = ClusterStats()
        program = [
            ClusterPassStats.from_shards(4, [(0, _pass()), (1, _pass())]),
            ClusterPassStats.from_shards(
                4, [(k, _pass()) for k in range(4)]
            ),  # every shard
            ClusterPassStats.from_shards(4, [(2, _pass())]),
            ClusterPassStats.from_shards(
                4, [(k, _pass()) for k in range(4)]
            ),  # every shard
        ]
        for pass_stats in program:
            stats.record_routing(pass_stats)
        assert stats.shards_routed_total == 2 + 4 + 1 + 4
        assert stats.shards_skipped_total == 2 + 0 + 3 + 0
        considered = stats.shards_routed_total + stats.shards_skipped_total
        assert stats.shard_skip_rate == pytest.approx(5 / considered)

    def test_zero_shard_pass_has_no_skip_rate(self):
        stats = ClusterStats()
        stats.record_routing(ClusterPassStats.from_shards(0, []))
        assert (stats.shards_routed_total, stats.shards_skipped_total) == (0, 0)
        assert stats.shard_skip_rate == 0.0

    def test_broadcasts_are_gone(self):
        """Routed and skipped totals say all a broadcast count said."""
        stats = ClusterStats()
        stats.record_routing(
            ClusterPassStats.from_shards(2, [(0, _pass()), (1, _pass())])
        )
        assert "broadcasts" not in stats.to_dict()
        assert not hasattr(ClusterPassStats(), "broadcast")
        restored = ClusterStats.from_dict({"broadcasts": 3, "failovers": 1})
        assert not hasattr(restored, "broadcasts")
        assert restored.failovers == 1

    def test_round_trip_preserves_routing_counters(self):
        stats = ClusterStats()
        stats.record_routing(
            ClusterPassStats.from_shards(3, [(0, _pass()), (2, _pass())])
        )
        stats.rebalance_moves = 5
        payload = stats.to_dict()
        restored = ClusterStats.from_dict(payload)
        assert restored.shards_routed_total == 2
        assert restored.shards_skipped_total == 1
        assert restored.rebalance_moves == 5


class TestLiveClusterReplay:
    """A real cluster under a search-and-mutation program."""

    DATA = [
        ["apple pie", "apple tart"],
        ["apple pie", "apple strudel"],
        ["banana split", "banana bread"],
        ["banana split", "banana royale"],
        ["cherry cola", "cherry pie"],
        ["durian shake", "durian toast"],
    ]

    def test_lifetime_counters_equal_query_by_query_replay(self):
        with SilkMothCluster.from_sets(
            self.DATA, SilkMothConfig(delta=0.3), shards=3, transport="inline"
        ) as cluster:
            queries = [
                ["apple pie", "apple tart"],
                ["durian shake", "durian toast"],
                ["banana split", "banana bread"],
            ]
            expected_routed = expected_skipped = 0
            funnel_checks = 0
            for i, query in enumerate(queries):
                cluster.search(query)
                last = cluster.last_pass
                assert last.shards_routed + last.shards_skipped == 3
                # Merged funnel == per-shard sums, every query.
                for counter in (
                    "initial_candidates",
                    "after_check",
                    "after_nn",
                    "verified",
                    "matches",
                ):
                    assert getattr(last.merged, counter) == sum(
                        getattr(stats, counter) for _, stats in last.per_shard
                    )
                funnel_checks += 1
                expected_routed += last.shards_routed
                expected_skipped += last.shards_skipped
                # Interleave mutations so later fan-outs run against a
                # changed placement.
                if i == 0:
                    cluster.add_set(["elderberry jam", "elderberry gin"])
                if i == 1:
                    cluster.remove_set(4)
            assert funnel_checks == len(queries)
            stats = cluster.stats
            assert stats.shards_routed_total == expected_routed
            assert stats.shards_skipped_total == expected_skipped
            considered = expected_routed + expected_skipped
            assert stats.shard_skip_rate == pytest.approx(
                expected_skipped / considered
            )
            # A search has no floor, so it skips no shard: every one
            # of them reaches all three, however narrow its tokens.
            assert stats.shards_skipped_total == 0
            assert stats.shards_routed_total == 3 * len(queries)

    def test_discovery_select_funnel_is_the_shard_sum(self):
        """The cluster's run totals carry the shards' select funnel."""
        config = SilkMothConfig(
            similarity=SimilarityKind.EDS, delta=0.5, alpha=0.6
        )
        sets = clustered_edit_sets(
            seed=3, clusters=6, sets_per_cluster=3, strings=4
        )
        with SilkMothCluster.from_sets(
            sets, config, shards=2, transport="inline"
        ) as cluster:
            cluster.discover()
            shard_runs = [
                cluster._replicas.endpoint(k, 0).host.engine.stats
                for k in range(cluster.n_shards)
            ]
            for name in _SELECT_COUNTERS:
                assert getattr(cluster.run_stats, name) == sum(
                    getattr(run, name) for run in shard_runs
                ), name
            assert cluster.run_stats.select_postings_scanned > 0
