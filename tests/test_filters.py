"""Unit tests for candidate selection, the check filter, and the NN filter."""

import pytest

from repro.core.records import SetCollection
from repro.filters.check import CandidateInfo, select_and_check
from repro.filters.nearest_neighbor import nearest_neighbor_filter, nn_search
from repro.index.inverted import InvertedIndex
from repro.sim.functions import SimilarityFunction, SimilarityKind
from repro.signatures import get_scheme


def _table2():
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
    collection = SetCollection.from_strings(S)
    reference = collection.sibling().add_set(R)
    return reference, collection


@pytest.fixture
def table2():
    return _table2()


@pytest.fixture
def table2_signature(table2):
    reference, collection = table2
    phi = SimilarityFunction(SimilarityKind.JACCARD)
    index = InvertedIndex(collection)
    signature = get_scheme("weighted").generate(reference, 2.1, phi, index)
    return reference, collection, index, phi, signature


class TestSelectAndCheck:
    def test_gathers_candidates_sharing_signature_tokens(self, table2_signature):
        reference, collection, index, phi, signature = table2_signature
        infos = select_and_check(
            reference, signature, index, phi, 2.1, collection, apply_check=False
        )
        ids = {info.set_id for info in infos}
        # Every set sharing a signature token must appear.
        for record in collection:
            shares = any(
                element.index_tokens & signature.tokens
                for element in record.elements
            )
            assert (record.set_id in ids) == shares

    def test_check_filter_prunes(self, table2_signature):
        reference, collection, index, phi, signature = table2_signature
        unchecked = select_and_check(
            reference, signature, index, phi, 2.1, collection, apply_check=False
        )
        checked = select_and_check(
            reference, signature, index, phi, 2.1, collection, apply_check=True
        )
        # The hoisted residual + gain is the float estimate() computes.
        assert [c.set_id for c in checked] == [
            c.set_id
            for c in unchecked
            if c.estimate(signature.element_bounds) >= 2.1
        ]
        assert 0 < len(checked) < len(unchecked)

    def test_related_set_survives_check(self, table2_signature):
        # S4 (id 3) is the true answer at delta = 0.7; the check filter
        # must keep it.
        reference, collection, index, phi, signature = table2_signature
        checked = select_and_check(
            reference, signature, index, phi, 2.1, collection, apply_check=True
        )
        assert 3 in {c.set_id for c in checked}

    def test_skip_set(self, table2_signature):
        reference, collection, index, phi, signature = table2_signature
        infos = select_and_check(
            reference, signature, index, phi, 2.1, collection,
            apply_check=False, skip_set=3,
        )
        assert 3 not in {c.set_id for c in infos}

    def test_size_range(self, table2_signature):
        reference, collection, index, phi, signature = table2_signature
        infos = select_and_check(
            reference, signature, index, phi, 2.1, collection,
            apply_check=False, size_range=(4.0, 10.0),
        )
        # All sets in Table 2 have 3 elements; none qualify.
        assert infos == []

    def test_witnessed_similarities_exceed_bounds(self, table2_signature):
        reference, collection, index, phi, signature = table2_signature
        infos = select_and_check(
            reference, signature, index, phi, 2.1, collection, apply_check=False
        )
        for info in infos:
            for i, score in info.best.items():
                assert score > signature.element_bounds[i]


class TestCandidateInfoEstimate:
    def test_estimate_without_witnesses(self):
        info = CandidateInfo(set_id=0)
        assert info.estimate((0.5, 0.5)) == pytest.approx(1.0)

    def test_estimate_with_witness(self):
        info = CandidateInfo(set_id=0, best={0: 0.9})
        assert info.estimate((0.5, 0.5)) == pytest.approx(1.4)


class TestNNSearch:
    def test_finds_exact_nearest_neighbor(self, table2):
        reference, collection = table2
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        index = InvertedIndex(collection)
        # r1 = {a,b,c,f,h}; in S4 the closest element is s41 = {a,b,c,h}
        # with Jaccard 4/5.
        best = nn_search(reference.elements[0], 3, index, phi, collection)
        assert best == pytest.approx(0.8)

    def test_floor_short_circuits(self, table2):
        reference, collection = table2
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        index = InvertedIndex(collection)
        best = nn_search(
            reference.elements[0], 3, index, phi, collection, floor=0.95
        )
        # Nothing beats 0.95, so the floor is returned unchanged.
        assert best == pytest.approx(0.95)

    def test_no_shared_tokens_returns_floor(self):
        collection = SetCollection.from_strings([["x y z"]])
        sibling = collection.sibling()
        probe = sibling.add_set(["a b c"])
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        index = InvertedIndex(collection)
        assert nn_search(probe.elements[0], 0, index, phi, collection) == 0.0


class TestNearestNeighborFilter:
    def test_example9_prunes_s3(self, table2):
        # Example 9: with the weighted signature of Example 6, candidate
        # S3 (id 2) is pruned by the NN filter.
        reference, collection = table2
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        index = InvertedIndex(collection)
        signature = get_scheme("weighted").generate(reference, 2.1, phi, index)
        infos = select_and_check(
            reference, signature, index, phi, 2.1, collection, apply_check=False
        )
        survivors = nearest_neighbor_filter(
            reference, infos, signature.element_bounds, 2.1,
            index, phi, collection,
        )
        assert 2 not in {c.set_id for c in survivors}

    def test_true_result_survives(self, table2):
        reference, collection = table2
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        index = InvertedIndex(collection)
        signature = get_scheme("weighted").generate(reference, 2.1, phi, index)
        infos = select_and_check(
            reference, signature, index, phi, 2.1, collection, apply_check=False
        )
        survivors = nearest_neighbor_filter(
            reference, infos, signature.element_bounds, 2.1,
            index, phi, collection,
        )
        assert 3 in {c.set_id for c in survivors}

    def test_filter_is_monotone(self, table2):
        reference, collection = table2
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        index = InvertedIndex(collection)
        signature = get_scheme("weighted").generate(reference, 2.1, phi, index)
        infos = select_and_check(
            reference, signature, index, phi, 2.1, collection, apply_check=False
        )
        survivors = nearest_neighbor_filter(
            reference, infos, signature.element_bounds, 2.1,
            index, phi, collection,
        )
        assert {c.set_id for c in survivors} <= {c.set_id for c in infos}

    def test_edit_no_share_cap_keeps_soundness(self):
        # Two strings with no shared 1-gram can still have eds > 0; the
        # cap must keep such candidates alive when theta is low.
        collection = SetCollection.from_strings(
            [["ab"]], kind=SimilarityKind.EDS, q=1
        )
        sibling = collection.sibling()
        reference = sibling.add_set(["cd"])
        phi = SimilarityFunction(SimilarityKind.EDS)
        index = InvertedIndex(collection)
        info = CandidateInfo(set_id=0)
        survivors = nearest_neighbor_filter(
            reference, [info], (1.0,), theta=0.3,
            index=index, phi=phi, collection=collection, q=1,
        )
        # cap = 2 / (2 + 2) = 0.5 >= 0.3: must NOT be pruned even though
        # the index-backed NN search finds nothing.
        assert survivors == [info]
