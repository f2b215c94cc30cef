"""Cluster exactness: shard + fan out + merge equals the single node.

The tentpole claim in test form: a :class:`repro.SilkMothCluster` is
observably identical to the single-node engine/service on the same
data -- for any dataset, configuration and shard count, under search,
discovery *and* arbitrary mutation sequences, with the numpy kernels
taking every batch and with none of them.  Scores are compared exactly
(not approximately): shard passes run the very same pipeline kernels on
the very same element pairs, so even the floats must agree bit for bit.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterDegradedError, SilkMothCluster
from repro.core.config import Relatedness, SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.obs.metrics import get_registry
from repro.service import SilkMothService
from repro.sim.functions import SimilarityKind
from strategies import (
    clustered_edit_sets,
    collections,
    edit_configs,
    string_collections,
    string_sets,
    token_configs,
    token_sets,
)
from strategies.kernels import KERNEL_MODES, kernel_mode

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _single_node_search(sets, reference_elements, config):
    collection = SetCollection.from_strings(
        sets, kind=config.similarity, q=config.effective_q
    )
    engine = SilkMoth(collection, config)
    reference = collection.query_set(reference_elements)
    return engine.search(reference)


def _assert_cluster_matches_engine(sets, reference_elements, config, shards):
    expected = _single_node_search(sets, reference_elements, config)
    with SilkMothCluster.from_sets(sets, config, shards=shards) as cluster:
        got = cluster.search(reference_elements)
    assert [(r.set_id, r.score, r.relatedness) for r in got] == [
        (r.set_id, r.score, r.relatedness) for r in expected
    ]


@pytest.mark.parametrize("kernels", KERNEL_MODES)
@given(
    sets=collections(min_sets=1, max_sets=7),
    reference=token_sets(),
    config=token_configs(),
    shards=st.integers(min_value=1, max_value=4),
)
@_SETTINGS
def test_cluster_search_identity_token_kinds(
    kernels, sets, reference, config, shards
):
    """Token-kind cluster search == single-node search, bit for bit."""
    with kernel_mode(kernels):
        _assert_cluster_matches_engine(sets, reference, config, shards)


@pytest.mark.parametrize("kernels", KERNEL_MODES)
@given(
    sets=string_collections(min_sets=1, max_sets=5),
    reference=string_sets(),
    config=edit_configs(),
    shards=st.integers(min_value=1, max_value=3),
)
@_SETTINGS
def test_cluster_search_identity_edit_kinds(
    kernels, sets, reference, config, shards
):
    """Edit-kind cluster search == single-node search, for every q.

    Out-of-constraint q values are included: the shards then plan the
    exact full scan and must still agree with the single node.
    """
    with kernel_mode(kernels):
        _assert_cluster_matches_engine(sets, reference, config, shards)


@pytest.mark.parametrize("kernels", KERNEL_MODES)
@given(
    sets=collections(min_sets=1, max_sets=7),
    config=token_configs(),
    shards=st.integers(min_value=1, max_value=4),
)
# Tied weights (two equal candidate elements) under shard-local token
# ids: the sparse rows' column order decides the pick, not the ids.
@example(
    sets=[
        ["bay ivy", "bay oak ash", "ash"],
        ["ash elm fir", "ash elm fir", "ash elm ivy", "elm fir oak"],
    ],
    config=SilkMothConfig(
        metric=Relatedness.CONTAINMENT, delta=0.25, alpha=0.0, scheme="weighted"
    ),
    shards=2,
)
@_SETTINGS
def test_cluster_discovery_identity(kernels, sets, config, shards):
    """Cluster self-discovery == engine self-discovery (rows + order)."""
    with kernel_mode(kernels):
        _assert_cluster_discovers_as_the_engine(sets, config, shards)


@pytest.mark.parametrize("kernels", KERNEL_MODES)
@given(
    sets=string_collections(min_sets=1, max_sets=4),
    config=edit_configs(),
    shards=st.integers(min_value=1, max_value=3),
)
@_SETTINGS
def test_cluster_discovery_identity_edit_kinds(kernels, sets, config, shards):
    """Edit-kind cluster discovery == engine discovery, for every q."""
    with kernel_mode(kernels):
        _assert_cluster_discovers_as_the_engine(sets, config, shards)


def _assert_cluster_discovers_as_the_engine(sets, config, shards):
    collection = SetCollection.from_strings(
        sets, kind=config.similarity, q=config.effective_q
    )
    expected = SilkMoth(collection, config).discover()
    with SilkMothCluster.from_sets(sets, config, shards=shards) as cluster:
        got = cluster.discover()
    assert got == expected


#: One mutation step: add a set, remove by (index into live ids), or
#: update likewise.  Indices are resolved against the live ids at
#: application time so every generated program is valid by construction.
_mutations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), token_sets()),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=30)),
        st.tuples(
            st.just("update"),
            st.integers(min_value=0, max_value=30),
            token_sets(),
        ),
    ),
    min_size=0,
    max_size=8,
)


def _apply_mutations(target, mutations):
    """Apply a mutation program, resolving indices to live ids."""
    for step in mutations:
        live = target.live_set_ids()
        if step[0] == "add":
            target.add_set(step[1])
        elif step[0] == "remove":
            if live:
                target.remove_set(live[step[1] % len(live)])
        else:
            if live:
                target.update_set(live[step[1] % len(live)], step[2])


@pytest.mark.parametrize("kernels", KERNEL_MODES)
@given(
    sets=collections(min_sets=1, max_sets=5),
    mutations=_mutations,
    reference=token_sets(),
    config=token_configs(),
    shards=st.integers(min_value=1, max_value=3),
)
@_SETTINGS
def test_cluster_identity_under_mutation(
    kernels, sets, mutations, reference, config, shards
):
    """Same mutation program => same ids and same answers as the service."""
    with kernel_mode(kernels):
        _assert_identity_under_mutation(sets, mutations, reference, config, shards)


def _assert_identity_under_mutation(sets, mutations, reference, config, shards):
    config = replace(config, scheme="dichotomy")
    service = SilkMothService(config)
    for elements in sets:
        service.add_set(elements)
    with SilkMothCluster.from_sets(sets, config, shards=shards) as cluster:
        _apply_mutations(service, mutations)
        _apply_mutations(cluster, mutations)
        assert cluster.live_set_ids() == service.live_set_ids()
        assert cluster.search(reference) == service.search(reference)
        # Compaction + rebalancing must be observably invisible.
        cluster.compact()
        assert cluster.search(reference) == service.search(reference)


def test_add_returns_global_ids_in_sequence():
    """Global ids are append-only and match single-node numbering."""
    from repro.core.config import SilkMothConfig

    with SilkMothCluster(SilkMothConfig(), shards=3) as cluster:
        assert cluster.add_set(["a b"]) == 0
        assert cluster.add_set(["c d"]) == 1
        assert cluster.remove_set(1) is None
        assert cluster.add_set(["e"]) == 2
        assert cluster.update_set(0, ["f"]) == 3
        assert cluster.live_set_ids() == [2, 3]
        assert cluster.total_sets == 4
        assert len(cluster) == 2


def test_mutating_dead_ids_raises():
    """Removing/updating a tombstoned or unknown id is a KeyError."""
    from repro.core.config import SilkMothConfig

    with SilkMothCluster(SilkMothConfig(), shards=2) as cluster:
        cluster.add_set(["a"])
        cluster.remove_set(0)
        with pytest.raises(KeyError):
            cluster.remove_set(0)
        with pytest.raises(KeyError):
            cluster.update_set(0, ["b"])
        with pytest.raises(KeyError):
            cluster.remove_set(99)
        cluster.add_set(["c d", "a b"])
        # Tombstoned ids still answer; ids never assigned do not (a
        # negative id must not index from the end of the tables).
        assert cluster.raw_set(0) == ("a",)
        assert cluster.placement_of(0) == (0, 0)
        for bad in (-1, -2, 2, 99):
            with pytest.raises(KeyError):
                cluster.raw_set(bad)
            with pytest.raises(KeyError):
                cluster.placement_of(bad)


def test_empty_reference_answers_without_fanout():
    """An empty reference returns [] and touches no shard."""
    from repro.core.config import SilkMothConfig

    with SilkMothCluster.from_sets(
        [["a b"], ["c"]], SilkMothConfig(), shards=2
    ) as cluster:
        assert cluster.search([]) == []
        assert cluster.last_pass.shards_routed == 0


def test_cluster_cache_and_generation():
    """Hot references hit the cluster cache; mutations invalidate it."""
    from repro.core.config import SilkMothConfig

    with SilkMothCluster.from_sets(
        [["a b"], ["a c"]], SilkMothConfig(delta=0.3), shards=2
    ) as cluster:
        first = cluster.search(["a b"])
        assert cluster.stats.cache_misses == 1
        again = cluster.search(["a b"])
        assert again == first
        assert cluster.stats.cache_hits == 1
        cluster.add_set(["a b"])
        after = cluster.search(["a b"])
        assert cluster.stats.cache_misses == 2
        assert len(after) == len(first) + 1


def test_search_many_deduplicates_and_caches():
    """Batch answers mirror the service's dedup/cache accounting."""
    from repro.core.config import SilkMothConfig

    with SilkMothCluster.from_sets(
        [["a b"], ["a c"], ["d"]], SilkMothConfig(delta=0.3), shards=2
    ) as cluster:
        batch = [["a b"], ["a b"], ["d"]]
        answers = cluster.search_many(batch)
        assert answers[0] == answers[1]
        assert cluster.stats.batch_queries_deduplicated == 1
        assert cluster.stats.batches == 1
        again = cluster.search_many(batch)
        assert again == answers
        assert cluster.stats.cache_hits >= 2


def test_rebalance_evens_out_shards():
    """Removing one shard's sets then compacting rebalances placement."""
    from repro.core.config import SilkMothConfig

    sets = [[f"w{i} common"] for i in range(12)]
    with SilkMothCluster.from_sets(
        sets, SilkMothConfig(delta=0.2), shards=3
    ) as cluster:
        # Round-robin placement: shard 0 holds global ids 0, 3, 6, 9.
        for gid in (0, 3, 6, 9):
            cluster.remove_set(gid)
        before = cluster.search(["common w1"])
        moves = cluster.rebalance()
        assert moves > 0
        assert cluster.stats.rebalance_moves == moves
        info_live = cluster.info()["shard_live_sets"]
        assert max(info_live) - min(info_live) <= 1
        assert cluster.search(["common w1"]) == before


def test_cluster_run_stats_aggregate_funnel():
    """Merged pass counters accumulate into the cluster's RunStats."""
    from repro.core.config import SilkMothConfig

    with SilkMothCluster.from_sets(
        [["a b"], ["a c"], ["x y"]], SilkMothConfig(delta=0.3), shards=2
    ) as cluster:
        cluster.search(["a b"])
        assert cluster.run_stats.passes == 1
        assert cluster.run_stats.matches >= 1
        assert cluster.last_pass.merged.matches >= 1
        assert cluster.last_pass.shards_total == 2


def _funnel(stats):
    return (
        stats.passes,
        stats.initial_candidates,
        stats.after_check,
        stats.after_nn,
        stats.verified,
        stats.matches,
    )


def test_dense_shards_stay_identical():
    """Small dense shards hand the kernels long batches; nothing changes.

    36 sets per shard, but long posting lists: the shards' merges and
    edit batches clear the numpy kernels' gates, in-process and in
    worker processes, and pairs, scores and funnel equal the single
    node's and those of the same cluster with the kernels off.
    """
    from repro.core.config import SilkMothConfig
    from repro.sim.functions import SimilarityKind

    config = SilkMothConfig(
        similarity=SimilarityKind.EDS, delta=0.5, alpha=0.6
    )
    sets = clustered_edit_sets(
        seed=3, clusters=24, sets_per_cluster=3, strings=6
    )
    engine = SilkMoth(
        SetCollection.from_strings(
            sets, kind=config.similarity, q=config.effective_q
        ),
        config,
    )
    expected = engine.discover()
    for transport, kernels in (
        ("inline", None), ("process", None), ("inline", "off")
    ):
        with kernel_mode(kernels) if kernels else nullcontext():
            with SilkMothCluster.from_sets(
                sets, config, shards=2, transport=transport
            ) as cluster:
                assert cluster.discover() == expected
                assert _funnel(cluster.run_stats) == _funnel(engine.stats)
                # `cluster info` says why, not only what.
                report = cluster.plan_report()
                assert report.count("; scheme pinned by configuration") == 2


def test_shard_count_knob_resolution(monkeypatch):
    """SILKMOTH_SHARDS supplies the default shard count."""
    from repro.settings import resolve

    monkeypatch.delenv("SILKMOTH_SHARDS", raising=False)
    assert resolve("SILKMOTH_SHARDS", None) == 4
    assert resolve("SILKMOTH_SHARDS", 2) == 2
    monkeypatch.setenv("SILKMOTH_SHARDS", "7")
    assert resolve("SILKMOTH_SHARDS", None) == 7
    with pytest.raises(ValueError):
        resolve("SILKMOTH_SHARDS", 0)


def test_from_sets_rejects_unknown_kwargs_before_spawning():
    """A typoed keyword fails fast, before any worker could leak."""
    from repro.core.config import SilkMothConfig

    with pytest.raises(TypeError) as excinfo:
        SilkMothCluster.from_sets(
            [["a"]], SilkMothConfig(), shards=1, cache_cap=64
        )
    assert "cache_cap" in str(excinfo.value)


def test_closed_cluster_refuses_work():
    """Operations after close() fail loudly, not with hangs."""
    from repro.core.config import SilkMothConfig

    cluster = SilkMothCluster.from_sets([["a"]], SilkMothConfig(), shards=1)
    cluster.close()
    cluster.close()  # idempotent
    with pytest.raises(RuntimeError):
        cluster.search(["a"])
    with pytest.raises(RuntimeError):
        cluster.add_set(["b"])


# ----------------------------------------------------------------------
# Fan-out: a pass reaches every shard; only a discovery floor skips one.
# ----------------------------------------------------------------------
FAN_OUT_CONFIG = SilkMothConfig(delta=0.3)

#: Round-robin over three shards: shard 0 holds gids 0, 3, 6; shard 1
#: gids 1, 4, 7 (4 is the empty set); shard 2 gids 2, 5.
FAN_OUT_SETS = [
    ["ash bay", "elm"],
    ["ash bay"],
    ["oak"],
    ["ash bay", "elm"],
    [],
    ["yew", ""],
    ["oak sky"],
    ["elm fir"],
]


def _floor_skips(cluster) -> int:
    """The (pass, shard) pairs ``discover()`` skips, from placement alone.

    A reference's pass has floor ``gid + 1`` (no pass once the floor
    passes the last id); it skips every shard whose highest placed id,
    tombstones included, lies under the floor, and an empty reference
    runs on no shard at all.
    """
    last_on = [-1] * cluster.n_shards
    for gid in range(cluster.total_sets):
        shard = cluster.placement_of(gid)[0]
        last_on[shard] = max(last_on[shard], gid)
    skipped = 0
    for gid in cluster.live_set_ids():
        floor = gid + 1
        if floor >= cluster.total_sets:
            continue
        if not cluster.raw_set(gid):
            skipped += cluster.n_shards
        else:
            skipped += sum(last < floor for last in last_on)
    return skipped


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_discovery_skips_exactly_the_shards_under_the_floor(transport):
    """``shards_skipped_total`` is the floor's skips and nothing else,
    after a remove and an add, and the rows are the single node's."""
    with SilkMothCluster.from_sets(
        FAN_OUT_SETS, FAN_OUT_CONFIG, shards=3, transport=transport
    ) as cluster:
        cluster.remove_set(6)
        cluster.add_set(["elm", "yew"])
        expected = _floor_skips(cluster)
        assert expected > 0
        rows = cluster.discover()
        assert cluster.stats.shards_skipped_total == expected
        passes = cluster.run_stats.passes
        empty = 1  # gid 4's pass runs nowhere and is not counted
        assert (
            cluster.stats.shards_routed_total
            + cluster.stats.shards_skipped_total
        ) == (passes + empty) * cluster.n_shards
    collection = SetCollection.from_strings(FAN_OUT_SETS + [["elm", "yew"]])
    collection.remove_set(6)
    assert rows == SilkMoth(collection, FAN_OUT_CONFIG).discover()


@given(sets=collections(min_sets=1, max_sets=8), shards=st.integers(1, 4))
@_SETTINGS
def test_floor_skips_match_placement_for_any_collection(sets, shards):
    """The same count on generated collections, empty sets included."""
    with SilkMothCluster.from_sets(
        sets, FAN_OUT_CONFIG, shards=shards
    ) as cluster:
        expected = _floor_skips(cluster)
        cluster.discover()
        assert cluster.stats.shards_skipped_total == expected


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_a_search_reaches_every_shard(transport):
    """A non-empty search runs on every shard, whatever its tokens.

    With five shards over three sets, shards 3 and 4 hold nothing, and
    ``zzz`` shares no token with any set; each search still runs on all
    five, with no cache to answer it, and agrees with the single node.
    """
    sets = [["ash oak", ""], ["oak sky"], ["elm"]]
    with SilkMothCluster.from_sets(
        sets, FAN_OUT_CONFIG, shards=5, transport=transport,
        cache_capacity=0,
    ) as cluster:
        for reference in (["oak"], ["zzz"], ["", "zzz unknown"], ["elm"]):
            results = cluster.search(reference)
            assert cluster.last_pass.shards_routed == 5
            assert cluster.last_pass.shards_skipped == 0
            assert results == _single_node_search(
                sets, reference, FAN_OUT_CONFIG
            )
        assert cluster.stats.shards_skipped_total == 0


def test_empty_element_pairing_is_found():
    """An empty element pairs with an empty element (phi = 1).

    It is the one similarity no shared token witnesses; the shard
    holding set 0 answers it.
    """
    sets = [["ash", ""], ["oak sky"]]
    with SilkMothCluster.from_sets(sets, FAN_OUT_CONFIG, shards=2) as cluster:
        results = cluster.search(["", "zzz unknown"])
        assert cluster.last_pass.shards_routed == 2
        assert 0 in {r.set_id for r in results}


def test_edit_search_without_the_prefix_certificate_is_exact():
    """Eds at alpha 0 and q 1: the shards plan a full scan; exact."""
    config = SilkMothConfig(
        similarity=SimilarityKind.EDS, alpha=0.0, delta=0.1, q=1
    )
    sets = [["abcde"], ["edcba"], ["zzzzz"]]
    with SilkMothCluster.from_sets(sets, config, shards=3) as cluster:
        results = cluster.search(["abcde"])
        assert cluster.last_pass.shards_routed == 3
        assert 1 in {r.set_id for r in results}
        assert results == _single_node_search(sets, ["abcde"], config)


def test_a_lost_shard_fails_every_search_but_not_a_floor_it_lies_under():
    """Every search needs every shard; a discovery floor may not.

    Three shards over two sets: shard 2 holds nothing.  Once it is
    lost, a search sharing no token with it still raises
    :class:`ClusterDegradedError` naming it, while discovery -- whose
    every floor lies past shard 2's (absent) sets -- answers.
    """
    sets = [["ash bay"], ["ash bay", "oak"]]
    with SilkMothCluster.from_sets(
        sets, FAN_OUT_CONFIG, shards=3, backoff=0.0
    ) as cluster:
        expected = cluster.search(["ash bay"])
        cluster.cache.invalidate()
        cluster._replicas.endpoint(2, 0).kill()
        for reference in (["ash bay"], ["zzz"]):
            with pytest.raises(ClusterDegradedError) as excinfo:
                cluster.search(reference)
            assert excinfo.value.shards == (2,)
        assert cluster.lost_shards() == [2]
        rows = cluster.discover()
        assert [(r.reference_id, r.set_id) for r in rows] == [(0, 1)]
        assert cluster.revive() == 1
        assert cluster.search(["ash bay"]) == expected


def _mutation_series() -> dict:
    """``silkmoth_mutations_total`` in this process, kind -> count."""
    family = get_registry().get("silkmoth_mutations_total")
    return {} if family is None else {
        labels[0]: child.value for labels, child in family.series()
    }


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_a_non_integer_set_id_is_a_key_error(transport):
    """A refused write changes nothing: ``True``, ``1.5``, ``"0"``,
    ``-1``, a past-the-end id and a tombstoned id name no live set.

    The one check runs before any step of the write, so the
    generation, the mutation counters and the metric series stay put.
    """
    sets = [["a b", "c d"], ["a b", "c e"], ["x y"], ["q r"]]
    with SilkMothCluster.from_sets(
        sets, FAN_OUT_CONFIG, shards=2, transport=transport
    ) as cluster:
        cluster.remove_set(3)
        before = (
            cluster.generation, cluster.stats.mutations, _mutation_series()
        )
        unassigned = (True, False, 1.5, "0", None, -1, 4)
        for bad in unassigned + (3,):
            assert not cluster.is_live(bad)
            for call in (
                lambda: cluster.remove_set(bad),
                lambda: cluster.update_set(bad, ["q"]),
            ):
                with pytest.raises(KeyError):
                    call()
        for bad in unassigned:
            for call in (
                lambda: cluster.raw_set(bad),
                lambda: cluster.placement_of(bad),
            ):
                with pytest.raises(KeyError):
                    call()
        assert (
            cluster.generation, cluster.stats.mutations, _mutation_series()
        ) == before
        assert cluster.live_set_ids() == [0, 1, 2]
        assert cluster.total_sets == 4
        assert [r.set_id for r in cluster.search(["a b", "c e"])] == [0, 1]


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_a_cluster_stores_each_element_as_its_text(transport, tmp_path):
    """Non-string elements are stored as their ``str``, as on a service.

    ``raw_set`` returns texts, the manifest round-trips, a replica
    revived from the directory comes up, and ``from_sets`` with ``7``
    is the cluster ``from_sets`` with ``"7"`` builds.
    """
    texts = [["a b", "7"], ["a b", "c e"], ["x y"]]
    numbers = [["a b", 7], ["a b", "c e"], ["x y"]]
    references = (["a b", "7"], ["12", "3.5"], ["a b", "c e"])
    options = dict(shards=2, transport=transport, replicas=2)
    with SilkMothCluster.from_sets(texts, FAN_OUT_CONFIG, **options) as twin:
        expected = [twin.search(reference) for reference in references[::2]]
    with SilkMothCluster.from_sets(numbers, FAN_OUT_CONFIG, **options) as cluster:
        assert cluster.raw_set(0) == ("a b", "7")
        assert [cluster.search(r) for r in references[::2]] == expected
        added = cluster.add_set([12, 3.5])
        updated = cluster.update_set(1, ["a b", 7])
        assert cluster.raw_set(added) == ("12", "3.5")
        assert cluster.raw_set(updated) == ("a b", "7")
        answers = [cluster.search(reference) for reference in references]
        assert [r.set_id for r in answers[1]] == [added]
        cluster._replicas.mark_dead(0, 0)
        assert cluster.revive() == 1
        cluster.save(tmp_path / "clu.json")
    with SilkMothCluster.load(
        tmp_path / "clu.json", FAN_OUT_CONFIG, transport=transport
    ) as loaded:
        assert loaded.raw_set(added) == ("12", "3.5")
        assert [loaded.search(r) for r in references] == answers
