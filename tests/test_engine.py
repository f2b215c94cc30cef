"""Integration tests for the SilkMoth engine against the paper's examples."""

import pytest

from repro.baselines.fastjoin import FastJoinBaseline
from repro.core.config import Relatedness, SilkMothConfig
from repro.core.engine import SilkMoth, relatedness_value
from repro.core.records import SetCollection
from repro.sim.functions import SimilarityKind


def _table2_collection():
    t = {i: chr(96 + i) for i in range(1, 13)}

    def el(*ids):
        return " ".join(t[i] for i in ids)

    R = [el(1, 2, 3, 6, 8), el(4, 5, 7, 9, 10), el(1, 4, 5, 11, 12)]
    S = [
        [el(2, 3, 5, 6, 7), el(1, 2, 4, 5, 6), el(1, 2, 3, 4, 7)],
        [el(1, 6, 8), el(1, 4, 5, 6, 7), el(1, 2, 3, 7, 9)],
        [el(1, 2, 3, 4, 6, 8), el(2, 3, 11, 12), el(1, 2, 3, 5)],
        [el(1, 2, 3, 8), el(4, 5, 7, 9, 10), el(1, 4, 5, 6, 9)],
    ]
    return R, SetCollection.from_strings(S)


class TestRelatednessValue:
    def test_containment(self):
        assert relatedness_value(Relatedness.CONTAINMENT, 2.1, 3, 5) == pytest.approx(0.7)

    def test_similarity(self):
        assert relatedness_value(Relatedness.SIMILARITY, 2.0, 3, 4) == pytest.approx(2 / 5)

    def test_zero_reference(self):
        assert relatedness_value(Relatedness.CONTAINMENT, 0.0, 0, 5) == 0.0

    def test_perfect_similarity(self):
        assert relatedness_value(Relatedness.SIMILARITY, 3.0, 3, 3) == pytest.approx(1.0)

    def test_degenerate_denominator_requires_positive_score(self):
        # Regression: a non-positive Jaccard denominator used to report
        # relatedness 1.0 even with score == 0 (e.g. degenerate sets
        # that are empty after tokenisation).  Perfect similarity must
        # only be claimed when the matching actually scored.
        assert relatedness_value(Relatedness.SIMILARITY, 2.0, 1, 1) == 1.0
        assert relatedness_value(Relatedness.SIMILARITY, 0.0, 1, -1) == 0.0

    def test_empty_after_tokenization_sets_are_related(self):
        # sim(empty, empty) == 1.0 end to end: a set whose elements all
        # tokenise to nothing matches its twin exactly.
        collection = SetCollection.from_strings([[""], ["a b"]])
        engine = SilkMoth(collection, SilkMothConfig(delta=0.5))
        reference = engine.reference_collection([[""]])[0]
        results = engine.search(reference)
        assert [r.set_id for r in results] == [0]
        assert results[0].score == pytest.approx(1.0)
        assert results[0].relatedness == pytest.approx(1.0)


class TestSearchMode:
    def test_example2_containment(self):
        """Example 2: only S4 is related at delta = 0.7 (containment)."""
        R, collection = _table2_collection()
        config = SilkMothConfig(metric=Relatedness.CONTAINMENT, delta=0.7)
        engine = SilkMoth(collection, config)
        reference = engine.reference_collection([R])[0]
        results = engine.search(reference)
        assert [r.set_id for r in results] == [3]
        assert results[0].score == pytest.approx(0.8 + 1.0 + 3 / 7, abs=1e-9)
        assert results[0].relatedness == pytest.approx((0.8 + 1.0 + 3 / 7) / 3)

    def test_higher_delta_excludes_s4(self):
        R, collection = _table2_collection()
        config = SilkMothConfig(metric=Relatedness.CONTAINMENT, delta=0.8)
        engine = SilkMoth(collection, config)
        reference = engine.reference_collection([R])[0]
        assert engine.search(reference) == []

    def test_empty_reference(self):
        R, collection = _table2_collection()
        config = SilkMothConfig(metric=Relatedness.CONTAINMENT, delta=0.7)
        engine = SilkMoth(collection, config)
        reference = engine.reference_collection([[]])[0]
        assert engine.search(reference) == []

    def test_stats_funnel_monotone(self):
        R, collection = _table2_collection()
        config = SilkMothConfig(metric=Relatedness.CONTAINMENT, delta=0.7)
        engine = SilkMoth(collection, config)
        reference = engine.reference_collection([R])[0]
        _, stats = engine.search_with_stats(reference)
        assert stats.initial_candidates >= stats.after_check
        assert stats.after_check >= stats.after_nn
        assert stats.after_nn == stats.verified
        assert stats.verified >= stats.matches

    def test_mismatched_tokenizer_rejected(self):
        _, collection = _table2_collection()
        config = SilkMothConfig(similarity=SimilarityKind.EDS, alpha=0.8, delta=0.7)
        with pytest.raises(ValueError):
            SilkMoth(collection, config)

    def test_mismatched_q_rejected(self):
        collection = SetCollection.from_strings(
            [["abc"]], kind=SimilarityKind.EDS, q=2
        )
        config = SilkMothConfig(
            similarity=SimilarityKind.EDS, alpha=0.8, delta=0.7, q=5
        )
        with pytest.raises(ValueError):
            SilkMoth(collection, config)


class TestDiscoveryMode:
    def test_self_discovery_excludes_self_pairs(self):
        _, collection = _table2_collection()
        config = SilkMothConfig(metric=Relatedness.SIMILARITY, delta=0.5)
        engine = SilkMoth(collection, config)
        for pair in engine.discover():
            assert pair.reference_id != pair.set_id

    def test_self_discovery_symmetric_dedup(self):
        _, collection = _table2_collection()
        config = SilkMothConfig(metric=Relatedness.SIMILARITY, delta=0.3)
        engine = SilkMoth(collection, config)
        pairs = engine.discover()
        keys = [(p.reference_id, p.set_id) for p in pairs]
        assert len(keys) == len(set(keys))
        for r, s in keys:
            assert r < s

    def test_external_references_must_share_the_vocabulary(self):
        # Token ids are compared, so references tokenised apart from the
        # engine's collection would silently find the wrong pairs (brute
        # force compares ids too, so the oracle would agree with them).
        sets = [
            ["apple pie", "banana split"],
            ["cherry tart", "date loaf"],
            ["apple pie", "banana split", "kiwi"],
        ]
        refs = [["kiwi", "cherry tart", "date loaf"], ["apple pie", "banana split"]]
        engine = SilkMoth(SetCollection.from_strings(sets), SilkMothConfig(delta=0.5))
        pairs = engine.discover(engine.reference_collection(refs))
        assert [(p.reference_id, p.set_id) for p in pairs] == [
            (0, 1),
            (1, 0),
            (1, 2),
        ]
        for foreign in (
            SetCollection.from_strings(refs),
            SetCollection.from_strings(refs, kind=SimilarityKind.EDS, q=2),
        ):
            with pytest.raises(ValueError, match="reference_collection"):
                engine.discover(foreign)

        eds = SilkMothConfig(similarity=SimilarityKind.EDS, delta=0.5, alpha=0.5, q=2)
        fastjoin = FastJoinBaseline(
            SetCollection.from_strings(sets, kind=SimilarityKind.EDS, q=2), eds
        )
        for foreign in (
            SetCollection.from_strings(refs, kind=SimilarityKind.EDS, q=2),
            SetCollection.from_strings(refs),
        ):
            with pytest.raises(ValueError, match="reference_collection"):
                fastjoin.discover(foreign)

    def test_cross_collection_discovery(self):
        R, collection = _table2_collection()
        config = SilkMothConfig(metric=Relatedness.CONTAINMENT, delta=0.7)
        engine = SilkMoth(collection, config)
        references = engine.reference_collection([R])
        pairs = engine.discover(references)
        assert [(p.reference_id, p.set_id) for p in pairs] == [(0, 3)]

    def test_identical_sets_are_related(self):
        collection = SetCollection.from_strings([["a b", "c d"], ["a b", "c d"]])
        config = SilkMothConfig(metric=Relatedness.SIMILARITY, delta=0.99)
        engine = SilkMoth(collection, config)
        pairs = engine.discover()
        assert [(p.reference_id, p.set_id) for p in pairs] == [(0, 1)]
        assert pairs[0].relatedness == pytest.approx(1.0)


class TestConfig:
    def test_delta_validation(self):
        with pytest.raises(ValueError):
            SilkMothConfig(delta=0.0)
        with pytest.raises(ValueError):
            SilkMothConfig(delta=1.5)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            SilkMothConfig(alpha=-0.2)

    def test_effective_q_from_alpha(self):
        config = SilkMothConfig(similarity=SimilarityKind.EDS, alpha=0.85, delta=0.7)
        assert config.effective_q == 5

    def test_effective_q_explicit(self):
        config = SilkMothConfig(similarity=SimilarityKind.EDS, alpha=0.85, delta=0.7, q=3)
        assert config.effective_q == 3

    def test_jaccard_effective_q_is_one(self):
        assert SilkMothConfig().effective_q == 1

    def test_noopt_configuration(self):
        noopt = SilkMothConfig().with_no_optimizations()
        assert noopt.scheme == "comb_unweighted"
        assert not noopt.check_filter
        assert not noopt.nn_filter
        assert not noopt.reduction

    def test_reduction_skipped_when_alpha_positive(self):
        # reduction=True with alpha > 0 must not raise: the engine falls
        # back to plain matching (Section 6.5).
        _, collection = _table2_collection()
        config = SilkMothConfig(
            metric=Relatedness.SIMILARITY, delta=0.5, alpha=0.3, reduction=True
        )
        engine = SilkMoth(collection, config)
        engine.discover()  # must not raise
