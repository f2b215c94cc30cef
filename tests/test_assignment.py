"""Alignment extraction: score consistency, validity, edge cases."""

import random

import pytest

from repro.backends import get_backend
from repro.core.records import SetCollection
from repro.matching.assignment import matching_alignment, scored_alignment
from repro.matching.hungarian import hungarian_assignment, matching_total
from repro.matching.score import matching_score
from repro.matching.sparse import sparse_assignment
from repro.sim.functions import SimilarityFunction, SimilarityKind
from strategies.kernels import KERNEL_MODES, kernel_mode


class TestHungarianAssignment:
    def test_identity_matrix(self):
        identity = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        assert hungarian_assignment(identity) == [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]

    def test_rectangular(self):
        assert hungarian_assignment([[0.0, 0.9, 0.1]]) == [(0, 1, 0.9)]
        assert hungarian_assignment([[0.0], [0.9], [0.1]]) == [(1, 0, 0.9)]

    def test_zero_pairs_omitted(self):
        assert hungarian_assignment([[1.0, 0.0], [0.0, 0.0]]) == [(0, 0, 1.0)]
        assert hungarian_assignment([]) == []

    def test_triples_are_a_matching_in_original_coordinates(self):
        # Sparse on purpose: all-zero rows and columns are pruned before
        # the solve, and tall matrices are solved transposed.
        rng = random.Random(7)
        for _ in range(40):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            weights = [
                [rng.random() if rng.random() < 0.6 else 0.0 for _ in range(m)]
                for _ in range(n)
            ]
            weights[rng.randrange(n)] = [0.0] * m
            triples = hungarian_assignment(weights)
            assert all(w > 0.0 and w == weights[i][j] for i, j, w in triples)
            assert len({i for i, _, _ in triples}) == len(triples)
            assert len({j for _, j, _ in triples}) == len(triples)


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
        score, alignment = scored_alignment(reference, candidate, phi)
        assert score == matching_score(reference, candidate, phi)
        assert alignment == matching_alignment(reference, candidate, phi)
        assert sum(pair.weight for pair in alignment) == pytest.approx(score)

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
        score, alignment = scored_alignment(reference, collection[0], phi)
        assert score == matching_score(reference, collection[0], phi)
        identical = [p for p in alignment if p.weight == pytest.approx(1.0)]
        assert len(identical) == 1

    @pytest.mark.parametrize("kernels", KERNEL_MODES)
    @pytest.mark.parametrize("kind", (SimilarityKind.JACCARD, SimilarityKind.EDS))
    def test_alignment_is_the_triples_behind_the_score(self, kernels, kind):
        with kernel_mode(kernels):
            calls = []

            class Spy(type(get_backend())):
                def weight_matrix(self, *args, **kwargs):
                    calls.append(kwargs)
                    return super().weight_matrix(*args, **kwargs)

            backend = Spy()
            rng = random.Random(8)
            vocab = [f"w{i}" for i in range(10)]
            phi = SimilarityFunction(kind, 0.2)
            for _ in range(30):
                sets = [
                    [
                        " ".join(rng.sample(vocab, rng.randint(1, 4)))
                        for _ in range(rng.randint(1, 5))
                    ]
                    for _ in range(2)
                ]
                collection = SetCollection.from_strings(sets, kind=kind)
                reference, candidate = collection[0], collection[1]
                score, alignment = scored_alignment(
                    reference, candidate, phi, backend=backend
                )
                # The backend it was given built the matrix, arguments threaded.
                assert calls.pop() == {"memo": None}
                triples = sparse_assignment(backend.weight_matrix(reference, candidate, phi))
                assert [
                    (p.reference_index, p.candidate_index, p.weight) for p in alignment
                ] == sorted(triples)
                assert score == matching_total(triples)
                assert score == matching_score(reference, candidate, phi, backend=backend)
