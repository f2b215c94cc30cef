"""The explain API: stage verdicts must agree with the real pipeline."""

import random

import pytest

from repro.core.config import Relatedness, SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.explain import explain, format_explanation
from repro.core.records import SetCollection
from repro.sim.functions import SimilarityKind


@pytest.fixture(scope="module")
def engine():
    rng = random.Random(21)
    vocab = [f"w{i}" for i in range(12)]
    sets = []
    for _ in range(20):
        sets.append(
            [
                " ".join(rng.sample(vocab, rng.randint(1, 4)))
                for _ in range(rng.randint(1, 4))
            ]
        )
    for i in range(0, 18, 3):
        sets[i + 1] = list(sets[i])
    collection = SetCollection.from_strings(sets)
    config = SilkMothConfig(metric=Relatedness.SIMILARITY, delta=0.6)
    return SilkMoth(collection, config)


class TestExplainConsistency:
    def test_verdicts_match_search(self, engine):
        for reference in engine.collection:
            related = {
                r.set_id
                for r in engine.search(reference, skip_set=reference.set_id)
            }
            for candidate_id in range(len(engine.collection)):
                if candidate_id == reference.set_id:
                    continue
                result = explain(engine, reference, candidate_id)
                assert result.related == (candidate_id in related), (
                    reference.set_id,
                    candidate_id,
                )

    def test_related_candidates_survive_all_stages(self, engine):
        reference = engine.collection[0]
        for r in engine.search(reference, skip_set=0):
            result = explain(engine, reference, r.set_id)
            assert result.survives == ("signature", "check", "nn", "verify")

    def test_score_matches_search_score(self, engine):
        reference = engine.collection[0]
        for r in engine.search(reference, skip_set=0):
            result = explain(engine, reference, r.set_id)
            assert result.score == r.score
            assert result.relatedness == r.relatedness

    def test_estimates_dominate_score(self, engine):
        # Both filter estimates are upper bounds on the true score.
        reference = engine.collection[3]
        for candidate_id in range(len(engine.collection)):
            if candidate_id == 3:
                continue
            result = explain(engine, reference, candidate_id)
            if result.signature_tokens is None:
                continue
            assert result.check_estimate >= result.score - 1e-9
            assert result.nn_estimate >= result.score - 1e-9

    def test_nn_estimate_tighter_than_check(self, engine):
        reference = engine.collection[3]
        for candidate_id in range(len(engine.collection)):
            if candidate_id == 3:
                continue
            result = explain(engine, reference, candidate_id)
            if result.signature_tokens is None:
                continue
            assert result.nn_estimate <= result.check_estimate + 1e-9

    def test_alignment_sums_to_score(self, engine):
        reference = engine.collection[0]
        result = explain(engine, reference, 1)
        assert sum(p.weight for p in result.alignment) == pytest.approx(
            result.score
        )


class TestFormatExplanation:
    def test_renders_related(self, engine):
        reference = engine.collection[0]
        result = explain(engine, reference, 1)
        text = format_explanation(result, engine, reference)
        assert "reference set 0 vs candidate set 1" in text
        assert "matching score" in text
        assert ("RELATED" in text) == result.related

    def test_renders_alignment_lines(self, engine):
        reference = engine.collection[0]
        result = explain(engine, reference, 1)
        text = format_explanation(result, engine, reference)
        if result.alignment:
            assert "<->" in text

    def test_edit_similarity_explain(self):
        sets = [["silkmoth"], ["silkmoth"], ["different"]]
        config = SilkMothConfig(
            similarity=SimilarityKind.EDS, delta=0.8, alpha=0.7
        )
        collection = SetCollection.from_strings(
            sets, kind=SimilarityKind.EDS, q=config.effective_q
        )
        engine = SilkMoth(collection, config)
        result = explain(engine, collection[0], 1)
        assert result.related
        text = format_explanation(result, engine, collection[0])
        assert "RELATED" in text
