"""Routing soundness: a skipped shard provably had nothing to say.

The router may only skip a shard when the pair-level certificate holds
(zero shared index tokens force ``phi_alpha = 0``); these tests verify
both halves of that contract on randomized data:

* every skipped shard shares **no** token hash with the reference (and
  no empty-element pairing), and
* brute force over the skipped shard's live sets confirms the shard
  would have contributed zero results.

Plus the unit behaviour of the summaries themselves -- exact sets,
the empty-element flag, and the certificate predicate per
configuration.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import brute_force_search
from repro.cluster import SilkMothCluster, routing_certificate_holds
from repro.cluster.routing import (
    ShardRouter,
    ShardSummary,
    element_token_hashes,
    reference_probe,
    token_hash,
)
from repro.core.config import SilkMothConfig
from repro.core.records import SetCollection
from repro.sim.functions import SimilarityKind
from repro.tokenize.tokenizers import Tokenizer
from strategies import collections, token_configs, token_sets

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(
    sets=collections(min_sets=1, max_sets=8),
    reference=token_sets(),
    config=token_configs(),
    shards=st.integers(min_value=2, max_value=4),
)
@_SETTINGS
def test_skipped_shards_provably_empty(sets, reference, config, shards):
    """Skipped shard => zero token overlap => brute force finds nothing."""
    with SilkMothCluster.from_sets(sets, config, shards=shards) as cluster:
        cluster.search(reference)
        routed = {k for k, _ in cluster.last_pass.per_shard}
        skipped = set(range(cluster.n_shards)) - routed
        if not reference:
            return
        tokenizer = Tokenizer(kind=config.similarity, q=config.effective_q)
        probe = reference_probe(tokenizer, reference)
        for k in skipped:
            shard_sets = [
                list(cluster.raw_set(gid))
                for gid in cluster.live_set_ids()
                if cluster.placement_of(gid)[0] == k
            ]
            # (1) zero signature/token overlap with the skipped shard.
            shard_hashes, shard_empty = set(), False
            for elements in shard_sets:
                hashes, has_empty = element_token_hashes(tokenizer, elements)
                shard_hashes |= hashes
                shard_empty = shard_empty or has_empty
            assert not (shard_hashes & probe.hashes)
            assert not (probe.has_empty and shard_empty)
            # (2) brute force over the shard agrees: nothing related.
            shard_collection = SetCollection.from_strings(
                shard_sets, kind=config.similarity, q=config.effective_q
            )
            shard_reference = shard_collection.query_set(reference)
            assert (
                brute_force_search(shard_reference, shard_collection, config)
                == []
            )


def test_certificate_predicate_per_configuration():
    """Token kinds always qualify; edit kinds only above the gram cap."""
    assert routing_certificate_holds(SilkMothConfig())  # jaccard
    assert routing_certificate_holds(
        SilkMothConfig(similarity=SimilarityKind.OVERLAP, alpha=0.0)
    )
    # NEds at q=1: the no-share cap is 0, so any alpha qualifies.
    assert routing_certificate_holds(
        SilkMothConfig(similarity=SimilarityKind.NEDS, alpha=0.0, q=1)
    )
    # Eds at q=1 caps at 1/3: alpha must clear it.
    assert routing_certificate_holds(
        SilkMothConfig(similarity=SimilarityKind.EDS, alpha=0.6, q=1)
    )
    assert not routing_certificate_holds(
        SilkMothConfig(similarity=SimilarityKind.EDS, alpha=0.0, q=1)
    )
    # q=2 caps at 2/3 for both edit kinds.
    assert not routing_certificate_holds(
        SilkMothConfig(similarity=SimilarityKind.EDS, alpha=0.6, q=2)
    )
    assert routing_certificate_holds(
        SilkMothConfig(similarity=SimilarityKind.EDS, alpha=0.8, q=2)
    )


def test_broadcast_without_certificate():
    """Edit similarity with alpha=0 must fan out to every shard.

    Two strings can have positive edit similarity while sharing no
    q-gram at all (e.g. a reversal), so no token summary can rule a
    shard out; the router must broadcast.
    """
    config = SilkMothConfig(
        similarity=SimilarityKind.EDS, alpha=0.0, delta=0.1, q=1
    )
    sets = [["abcde"], ["edcba"], ["zzzzz"]]
    with SilkMothCluster.from_sets(sets, config, shards=3) as cluster:
        assert not cluster.routing_enabled
        results = cluster.search(["abcde"])
        assert cluster.last_pass.shards_routed == 3
        # The zero-gram-overlap pair is genuinely related here.
        assert 1 in {r.set_id for r in results}


def test_exact_summary_membership():
    """Summaries are exact: neither false positives nor negatives."""
    summary = ShardSummary()
    summary.add_set_tokens([token_hash("ash")], has_empty=False)
    assert token_hash("ash") in summary.tokens
    assert token_hash("oak") not in summary.tokens
    assert len(summary.tokens) == 1


def test_empty_element_pairing_routes():
    """A reference with an empty element reaches shards holding one."""
    config = SilkMothConfig(delta=0.3)
    # Round-robin placement: shard 0 holds the empty element, shard 1
    # holds only tokens the reference does not share.
    sets = [["ash", ""], ["oak sky"]]
    with SilkMothCluster.from_sets(sets, config, shards=2) as cluster:
        results = cluster.search(["", "zzz unknown"])
        assert cluster.last_pass.shards_routed == 1
        assert 0 in {r.set_id for r in results}


def test_summary_rebuild_tightens_after_compaction():
    """Removing a set leaves the summary stale-sound until compact()."""
    config = SilkMothConfig(delta=0.3)
    # cache_capacity=0: every search below must actually consult the
    # router (a cached answer would freeze last_pass).
    with SilkMothCluster.from_sets(
        [["unique token"], ["other words"]], config, shards=1, cache_capacity=0
    ) as cluster:
        probe_elements = ["unique"]
        cluster.search(probe_elements)
        assert cluster.last_pass.shards_routed == 1
        cluster.remove_set(0)
        # Stale summary still routes (sound, just not tight)...
        cluster.search(probe_elements)
        assert cluster.last_pass.shards_routed == 1
        assert cluster.search(probe_elements) == []
        cluster.compact()
        # ...and the rebuilt summary skips the shard outright.
        cluster.search(probe_elements)
        assert cluster.last_pass.shards_routed == 0


def test_shard_summary_may_answer():
    """ShardSummary combines token intersection with the empty flag."""
    summary = ShardSummary()
    summary.add_set_tokens([token_hash("ash")], has_empty=False)
    tokenizer = Tokenizer(kind=SimilarityKind.JACCARD)
    assert summary.may_answer(reference_probe(tokenizer, ["ash oak"]))
    assert not summary.may_answer(reference_probe(tokenizer, ["oak"]))
    assert not summary.may_answer(reference_probe(tokenizer, [""]))
    summary.add_set_tokens([], has_empty=True)
    assert summary.may_answer(reference_probe(tokenizer, [""]))


def test_router_routes_only_shards_sharing_a_token():
    """ShardRouter.add folds a set in; shards_for skips the rest."""
    router = ShardRouter(SilkMothConfig(delta=0.3), n_shards=3)
    router.add(0, ["ash oak"])
    router.add(1, ["sky", ""])
    assert router.certificate
    assert router.shards_for(["oak"]) == [0]
    assert router.shards_for(["sky elm"]) == [1]
    assert router.shards_for([""]) == [1]
    assert router.shards_for(["ash", "sky"]) == [0, 1]
    assert router.shards_for(["zzz"]) == []


def test_router_rebuild_replaces_every_summary():
    """rebuild drops what add folded in and keeps only the live sets."""
    router = ShardRouter(SilkMothConfig(delta=0.3), n_shards=2)
    router.add(0, ["ash"])
    router.rebuild([(1, ["oak", ""])])
    assert router.shards_for(["ash"]) == []
    assert router.shards_for(["oak"]) == [1]
    assert router.shards_for([""]) == [1]


@pytest.mark.parametrize("transport", ["inline", "process", "socket"])
def test_compacted_summaries_equal_the_live_sets_on_each_shard(transport):
    """After compact(), each summary is exactly its shard's live tokens.

    The program adds, removes, updates and compacts with rebalance
    moves; the expected summary is recomputed here from ``raw_set`` and
    ``placement_of`` alone, independent of how the router built it.
    """
    config = SilkMothConfig(delta=0.3)
    sets = [[f"w{i} shared", f"x{i % 4}"] for i in range(14)] + [["", "y"]]
    tokenizer = Tokenizer(kind=config.similarity, q=config.effective_q)

    def assert_tight(cluster):
        for k, summary in enumerate(cluster._router.summaries):
            texts = [
                text
                for gid in cluster.live_set_ids()
                if cluster.placement_of(gid)[0] == k
                for text in cluster.raw_set(gid)
            ]
            hashes, has_empty = element_token_hashes(tokenizer, texts)
            assert (summary.tokens, summary.has_empty) == (
                set(hashes), has_empty
            ), k

    with SilkMothCluster.from_sets(
        sets, config, shards=3, transport=transport
    ) as cluster:
        for gid in (0, 3, 6, 9, 12):  # empty out shard 0
            cluster.remove_set(gid)
        cluster.update_set(1, ["w1 changed", "z"])
        cluster.add_set(["fresh words", ""])
        cluster.compact()
        assert cluster.stats.rebalance_moves > 0
        assert_tight(cluster)
        moves = cluster.stats.rebalance_moves
        for gid in cluster.live_set_ids():  # empty shard 0 again
            if cluster.placement_of(gid)[0] == 0:
                cluster.remove_set(gid)
        cluster.add_set(["w2 shared", "late"])
        cluster.update_set(cluster.live_set_ids()[0], ["w4 again"])
        cluster.compact()
        assert cluster.stats.rebalance_moves > moves
        assert_tight(cluster)
