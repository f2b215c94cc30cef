"""Alignment extraction: score consistency, validity, edge cases."""

import random

import pytest

np = pytest.importorskip("numpy")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import SetCollection
from repro.matching.assignment import (
    matching_alignment,
    max_weight_assignment,
)
from repro.matching.hungarian import (
    hungarian_max_weight,
    max_weight_assignment_python,
)
from repro.matching.score import matching_score
from repro.sim.functions import SimilarityFunction, SimilarityKind


class TestMaxWeightAssignment:
    def test_identity_matrix(self):
        score, pairs = max_weight_assignment(np.eye(3))
        assert score == pytest.approx(3.0)
        assert pairs == [(0, 0), (1, 1), (2, 2)]

    def test_rectangular_wide(self):
        weights = np.array([[0.0, 0.9, 0.1]])
        score, pairs = max_weight_assignment(weights)
        assert score == pytest.approx(0.9)
        assert pairs == [(0, 1)]

    def test_rectangular_tall(self):
        weights = np.array([[0.0], [0.9], [0.1]])
        score, pairs = max_weight_assignment(weights)
        assert score == pytest.approx(0.9)
        assert pairs == [(1, 0)]

    def test_zero_pairs_omitted(self):
        weights = np.array([[1.0, 0.0], [0.0, 0.0]])
        score, pairs = max_weight_assignment(weights)
        assert score == pytest.approx(1.0)
        assert pairs == [(0, 0)]

    def test_empty(self):
        assert max_weight_assignment(np.zeros((0, 3))) == (0.0, [])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            max_weight_assignment(np.array([[-1.0]]))

    def test_pairs_are_a_matching(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n, m = rng.integers(1, 8, size=2)
            weights = rng.random((n, m))
            _, pairs = max_weight_assignment(weights)
            rows = [i for i, _ in pairs]
            cols = [j for _, j in pairs]
            assert len(rows) == len(set(rows))
            assert len(cols) == len(set(cols))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_score_matches_hungarian(self, seed):
        # Sparse on purpose: all-zero rows and columns are pruned before
        # the solve, and the pairs must come back in original coordinates.
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        weights = rng.random((n, m)) * (rng.random((n, m)) < 0.6)
        weights[rng.random(n) < 0.3, :] = 0.0
        weights[:, rng.random(m) < 0.3] = 0.0
        score, pairs = max_weight_assignment(weights)
        assert score == hungarian_max_weight(weights)
        assert score == pytest.approx(max_weight_assignment_python(weights)[0])
        assert score == pytest.approx(
            sum(weights[i, j] for i, j in pairs)
        )
        assert all(weights[i, j] > 0.0 for i, j in pairs)
        assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)


class TestMatchingAlignment:
    @pytest.fixture
    def address_pair(self):
        collection = SetCollection.from_strings(
            [
                [
                    "77 Massachusetts Avenue Boston MA",
                    "Fifth Street Seattle MA 02115",
                    "77 Fifth Street Chicago IL",
                    "One Kendall Square Cambridge MA",
                ],
            ]
        )
        sibling = collection.sibling()
        reference = sibling.add_set(
            [
                "77 Mass Ave Boston MA",
                "5th St 02115 Seattle WA",
                "77 5th St Chicago IL",
            ]
        )
        return reference, collection[0]

    def test_weights_sum_to_matching_score(self, address_pair):
        reference, candidate = address_pair
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        alignment = matching_alignment(reference, candidate, phi)
        total = sum(pair.weight for pair in alignment)
        assert total == pytest.approx(matching_score(reference, candidate, phi))

    def test_each_reference_aligned_once(self, address_pair):
        reference, candidate = address_pair
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        alignment = matching_alignment(reference, candidate, phi)
        ref_indices = [pair.reference_index for pair in alignment]
        assert len(ref_indices) == len(set(ref_indices))

    def test_paper_example_alignment(self, address_pair):
        # Example 1's structure: rows align 1-1, 2-2, 3-3.  (The prose
        # values 1/3, 1/3, 3/5 in the paper do not follow from its own
        # Jaccard definition -- cf. Example 2, which computes 3/7 for
        # the same kind of pair -- so we assert the definitional values.)
        reference, candidate = address_pair
        phi = SimilarityFunction(SimilarityKind.JACCARD, alpha=0.2)
        alignment = {
            pair.reference_index: pair
            for pair in matching_alignment(reference, candidate, phi)
        }
        assert alignment[0].candidate_index == 0
        assert alignment[1].candidate_index == 1
        assert alignment[2].candidate_index == 2
        # {77, Boston, MA} shared of 7 distinct words.
        assert alignment[0].weight == pytest.approx(3 / 7)
        # {Seattle, 02115} shared of 8 distinct words.
        assert alignment[1].weight == pytest.approx(1 / 4)
        # {77, Chicago, IL} shared of 7 distinct words.
        assert alignment[2].weight == pytest.approx(3 / 7)

    def test_empty_sets(self):
        collection = SetCollection.from_strings([["a"]])
        empty = collection.sibling().add_set([])
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        assert matching_alignment(empty, collection[0], phi) == []

    def test_edit_similarity_alignment(self):
        collection = SetCollection.from_strings(
            [["silkmoth", "matching"]], kind=SimilarityKind.EDS, q=2
        )
        reference = collection.sibling().add_set(["silkmoth", "watching"])
        phi = SimilarityFunction(SimilarityKind.EDS)
        alignment = matching_alignment(reference, collection[0], phi)
        total = sum(pair.weight for pair in alignment)
        assert total == pytest.approx(
            matching_score(reference, collection[0], phi)
        )
        identical = [p for p in alignment if p.weight == pytest.approx(1.0)]
        assert len(identical) == 1

    def test_random_consistency_with_score(self):
        rng = random.Random(8)
        vocab = [f"w{i}" for i in range(10)]
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        for _ in range(30):
            sets = [
                [
                    " ".join(rng.sample(vocab, rng.randint(1, 4)))
                    for _ in range(rng.randint(1, 5))
                ]
                for _ in range(2)
            ]
            collection = SetCollection.from_strings(sets)
            alignment = matching_alignment(collection[0], collection[1], phi)
            total = sum(pair.weight for pair in alignment)
            assert total == pytest.approx(
                matching_score(collection[0], collection[1], phi)
            )
