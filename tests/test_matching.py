"""Unit and property tests for the matcher, the sparse solve and the reduction."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.matching import sparse
from repro.matching.hungarian import (
    hungarian_max_weight,
    matching_total,
    scipy_max_weight,
)
from repro.matching.reduction import reduced_matching_score
from repro.matching.score import build_weight_matrix, matching_score
from repro.matching.sparse import sparse_assignment
from repro.sim.functions import SimilarityFunction, SimilarityKind
from repro.workloads import inclusion_dependency, schema_matching, string_matching
from strategies import TOKEN_KINDS, duplicated_collections, tie_heavy_matrices

try:
    import scipy
except ImportError:
    scipy = None


class TestHungarian:
    def test_empty_and_single_cell(self):
        assert hungarian_max_weight([]) == 0.0
        assert hungarian_max_weight([[], [], []]) == 0.0
        assert hungarian_max_weight([[0.7]]) == 0.7

    def test_square_identity(self):
        w = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        assert hungarian_max_weight(w) == 3.0

    def test_must_choose_off_diagonal(self):
        assert hungarian_max_weight([[0.9, 1.0], [1.0, 0.9]]) == 2.0

    def test_greedy_is_suboptimal(self):
        # Greedy would take 1.0 then 0.0; optimal is 0.9 + 0.8.
        assert hungarian_max_weight([[1.0, 0.9], [0.8, 0.0]]) == pytest.approx(1.7)

    def test_rectangular(self):
        assert hungarian_max_weight([[0.2, 0.9, 0.1]]) == 0.9
        assert hungarian_max_weight([[0.2], [0.9], [0.1]]) == 0.9

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hungarian_max_weight([[-0.1]])

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            hungarian_max_weight([1.0, 2.0])

    def test_paper_example2_score(self):
        # Example 2: |R ~cap~ S4| = 0.8 + 1 + 0.429 = 2.229 (approx).
        w = [
            [0.8, 0.0, 2 / 8],
            [0.0, 1.0, 3 / 7],
            [1 / 8, 3 / 7, 3 / 7],
        ]
        assert hungarian_max_weight(w) == pytest.approx(0.8 + 1.0 + 3 / 7)

    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_on_random_matrices(self, n, m, seed):
        pytest.importorskip("scipy")
        rng = random.Random(seed)
        w = [[rng.random() for _ in range(m)] for _ in range(n)]
        assert hungarian_max_weight(w) == pytest.approx(scipy_max_weight(w))

    def test_duplicate_weights(self):
        assert hungarian_max_weight([[0.5] * 4] * 4) == 2.0


def _sparse(matrix):
    return [{j: w for j, w in enumerate(row) if w > 0.0} for row in matrix]


def _optimum(matrix):
    """Exact maximum matching weight and how many matchings attain it."""
    best, count = Fraction(0), 0

    def extend(i, used, total):
        nonlocal best, count
        if i == len(matrix):
            if total > best:
                best, count = total, 1
            elif total == best:
                count += 1
            return
        extend(i + 1, used, total)
        for j, w in enumerate(matrix[i]):
            if w > 0.0 and j not in used:
                extend(i + 1, used | {j}, total + Fraction(w))

    extend(0, frozenset(), Fraction(0))
    return best, count


@pytest.fixture
def dense_solves(monkeypatch):
    """Shapes of the components the sparse solve hands to the dense solver."""
    shapes = []
    solver = sparse.hungarian_assignment

    def spy(dense):
        shapes.append((len(dense), len(dense[0])))
        return solver(dense)

    monkeypatch.setattr(sparse, "hungarian_assignment", spy)
    return shapes


class TestSparseAssignment:
    @given(tie_heavy_matrices())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_dense_solve(self, matrix):
        triples = sparse_assignment(_sparse(matrix))
        score = matching_total(triples)
        # The triples are a matching over positive cells.
        assert len({i for i, _, _ in triples}) == len(triples)
        assert len({j for _, j, _ in triples}) == len(triples)
        assert all(w > 0.0 and w == matrix[i][j] for i, j, w in triples)
        best, optimal_matchings = _optimum(matrix)
        dense = hungarian_max_weight(matrix)
        assert score == pytest.approx(float(best), abs=1e-9)
        assert score == pytest.approx(dense, abs=1e-9)
        if optimal_matchings == 1:
            assert score == dense
        if scipy is not None:
            assert score == pytest.approx(scipy_max_weight(matrix), abs=1e-9)

    def test_distinct_row_maxima_are_the_matching(self, dense_solves):
        rows = _sparse([[0.5, 1.0, 0.0], [0.0, 0.0, 0.0], [2 / 3, 1 / 3, 0.0]])
        assert sparse_assignment(rows) == [(2, 0, 2 / 3), (0, 1, 1.0)]
        assert sparse_assignment(_sparse([[0.0] * 3] * 2)) == []
        assert sparse_assignment([]) == []
        assert dense_solves == []

    def test_components_are_answered_on_their_own(self, dense_solves):
        # Rows 0-2 collide on column 0 (a star: the best row takes it);
        # rows 3-4 form a second component whose maxima do not collide.
        matrix = [
            [0.5, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.5, 0.0, 0.0],
            [0.0, 1 / 3, 1.0],
            [0.0, 3 / 7, 0.0],
        ]
        assert sparse_assignment(_sparse(matrix)) == [
            (1, 0, 1.0),
            (3, 2, 1.0),
            (4, 1, 3 / 7),
        ]
        assert dense_solves == []

    def test_only_the_colliding_component_is_solved(self, dense_solves):
        # Greedy takes 1.0 then nothing; the optimum is 0.9 + 0.8.
        matrix = [[1.0, 0.9, 0.0], [0.8, 0.0, 0.0], [0.0, 0.0, 0.5]]
        triples = sparse_assignment(_sparse(matrix))
        assert triples == [(1, 0, 0.8), (0, 1, 0.9), (2, 2, 0.5)]
        assert dense_solves == [(2, 2)]
        assert matching_total(triples) == hungarian_max_weight(matrix)

    def test_more_rows_than_columns_sums_by_row(self):
        matrix = [[0.0, 1 / 3], [3 / 7, 1 / 3], [3 / 5, 0.0], [0.0, 0.0]]
        triples = sparse_assignment(_sparse(matrix))
        assert triples == [(0, 1, 1 / 3), (2, 0, 3 / 5)]
        assert matching_total(triples) == hungarian_max_weight(matrix)

    def test_one_component_spanning_the_matrix(self, dense_solves):
        rng = random.Random(40)
        matrix = [[rng.random() for _ in range(40)] for _ in range(40)]
        score = matching_total(sparse_assignment(_sparse(matrix)))
        assert dense_solves == [(40, 40)]
        assert score == hungarian_max_weight(matrix)
        # The same shape from sets: every element shares the token "z".
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        words = "abcdefgh"
        sets = [
            [f"z {' '.join(rng.sample(words, rng.randint(1, 4)))}" for _ in range(9)]
            for _ in range(2)
        ]
        collection = SetCollection.from_strings(sets)
        assert matching_score(collection[0], collection[1], phi) == (
            hungarian_max_weight(_dense(collection[0], collection[1], phi))
        )
        assert dense_solves[1:] == [(9, 9)]


def _dense(reference, candidate, phi):
    if phi.kind.is_token_based:
        cell = lambda r, s: phi.tokens(r.index_tokens, s.index_tokens)
    else:
        cell = lambda r, s: phi.edit_at_least(r.text, s.text, 0.0)
    return [[cell(r, s) for s in candidate.elements] for r in reference.elements]


class TestWeightRows:
    @pytest.mark.parametrize("kind", TOKEN_KINDS)
    @pytest.mark.parametrize("alpha", (0.0, 0.4))
    @given(duplicated_collections())
    @settings(max_examples=25, deadline=None)
    def test_token_rows_are_the_positive_cells(self, kind, alpha, drawn):
        sets, reference = drawn
        collection = SetCollection.from_strings(sets, kind=kind)
        query = collection.query_set(reference + [""])
        phi = SimilarityFunction(kind, alpha)
        for candidate in collection:
            expected = _sparse(_dense(query, candidate, phi))
            got = get_backend().weight_matrix(query, candidate, phi)
            # Cells and their (ascending column) order.
            assert [list(row.items()) for row in got] == [
                list(row.items()) for row in expected
            ]

    @pytest.mark.parametrize("kind", TOKEN_KINDS)
    def test_tied_weights_match_alike_under_any_token_ids(self, kind):
        """Token ids order nothing: a cluster shard's vocabulary differs.

        Columns 0 and 1 are the same element, so rows tie on them.  The
        single node numbers the tokens from both sets; a shard holding
        only the candidate numbers the reference's as a query set does.
        Both must pick the same matching -- the same triples, the same
        bits of the score.
        """
        reference, candidate = (
            ["bay ivy", "bay oak ash", "ash"],
            ["ash elm fir", "ash elm fir", "ash elm ivy", "elm fir oak"],
        )
        phi = SimilarityFunction(kind, 0.0)
        node = SetCollection.from_strings([reference, candidate], kind=kind)
        shard = SetCollection.from_strings([candidate], kind=kind)
        solved = []
        for r, s in ((node[0], node[1]), (shard.query_set(reference), shard[0])):
            rows = get_backend().weight_matrix(r, s, phi)
            assert all(list(row) == sorted(row) for row in rows)
            solved.append(sparse_assignment(rows))
        assert solved[0] == solved[1]

    def test_a_large_token_matrix(self):
        rng = random.Random(17)
        words = [f"w{k}" for k in range(30)]
        sets = [
            [" ".join(rng.sample(words, rng.randint(0, 4))) for _ in range(70)]
            for _ in range(2)
        ]
        collection = SetCollection.from_strings(sets)
        phi = SimilarityFunction(SimilarityKind.JACCARD, 0.3)
        expected = _sparse(_dense(collection[0], collection[1], phi))
        assert get_backend().weight_matrix(collection[0], collection[1], phi) == expected

    @pytest.mark.parametrize(
        "generate", (string_matching, schema_matching, inclusion_dependency)
    )
    def test_engine_scores_are_the_dense_solve(self, generate):
        # The repo benchmark's inputs at smoke size; no reduction, whose
        # score is a count plus the solve of the residual.
        workload = generate(n_sets=40, seed=20170901)
        config = replace(workload.config, reduction=False)
        collection = SetCollection.from_strings(
            workload.sets, kind=config.similarity, q=config.effective_q
        )
        rows = SilkMoth(collection, config).discover()
        assert rows
        for row in rows:
            dense = _dense(collection[row.reference_id], collection[row.set_id], config.phi)
            assert row.score == hungarian_max_weight(dense)


def _jaccard_sets(*sets):
    return SetCollection.from_strings(list(sets))


class TestMatchingScore:
    def test_identical_sets(self):
        collection = _jaccard_sets(["a b", "c d"], ["a b", "c d"])
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        assert matching_score(collection[0], collection[1], phi) == pytest.approx(2.0)

    def test_disjoint_sets(self):
        collection = _jaccard_sets(["a b"], ["x y"])
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        assert matching_score(collection[0], collection[1], phi) == 0.0

    def test_weight_matrix_edit(self):
        collection = SetCollection.from_strings(
            [["cat"], ["cut"]], kind=SimilarityKind.NEDS, q=2
        )
        phi = SimilarityFunction(SimilarityKind.NEDS)
        assert build_weight_matrix(collection[0], collection[1], phi) == [
            {0: pytest.approx(2 / 3)}
        ]

    def test_alpha_zeroes_weak_edges(self):
        collection = _jaccard_sets(["a b c d"], ["a x y z"])
        phi = SimilarityFunction(SimilarityKind.JACCARD, alpha=0.5)
        assert matching_score(collection[0], collection[1], phi) == 0.0


class TestReduction:
    def _phi(self):
        return SimilarityFunction(SimilarityKind.JACCARD)

    def test_identical_elements_matched_directly(self):
        collection = _jaccard_sets(["a b", "c d", "e f"], ["a b", "c d", "x y"])
        assert reduced_matching_score(
            collection[0], collection[1], self._phi()
        ) == pytest.approx(2.0)

    def test_agrees_with_plain_matching(self):
        collection = _jaccard_sets(
            ["a b c", "c d", "e f", "a b"],
            ["a b", "c d e", "e f", "g h"],
        )
        phi = self._phi()
        assert reduced_matching_score(
            collection[0], collection[1], phi
        ) == pytest.approx(matching_score(collection[0], collection[1], phi))

    def test_duplicate_elements_multiset_semantics(self):
        # Two copies of "a b" on one side, one on the other: only one
        # identical pair can be matched greedily.
        collection = _jaccard_sets(["a b", "a b"], ["a b", "x y"])
        phi = self._phi()
        assert reduced_matching_score(
            collection[0], collection[1], phi
        ) == pytest.approx(matching_score(collection[0], collection[1], phi))

    def test_rejects_alpha(self):
        collection = _jaccard_sets(["a"], ["a"])
        phi = SimilarityFunction(SimilarityKind.JACCARD, alpha=0.5)
        with pytest.raises(ValueError):
            reduced_matching_score(collection[0], collection[1], phi)

    def test_edit_kind_identity_by_string(self):
        collection = SetCollection.from_strings(
            [["abc", "def"], ["abc", "xyz"]], kind=SimilarityKind.EDS, q=2
        )
        phi = SimilarityFunction(SimilarityKind.EDS)
        assert reduced_matching_score(
            collection[0], collection[1], phi
        ) == pytest.approx(matching_score(collection[0], collection[1], phi))

    def test_empty_sides(self):
        collection = _jaccard_sets([], ["a"])
        phi = self._phi()
        assert reduced_matching_score(collection[0], collection[1], phi) == 0.0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_reduction_equals_plain_on_random_sets(self, seed):
        import random

        rng = random.Random(seed)
        vocab = ["a", "b", "c", "d", "e"]

        def random_set():
            return [
                " ".join(rng.sample(vocab, rng.randint(1, 3)))
                for _ in range(rng.randint(1, 5))
            ]

        collection = _jaccard_sets(random_set(), random_set())
        phi = self._phi()
        assert reduced_matching_score(
            collection[0], collection[1], phi
        ) == pytest.approx(matching_score(collection[0], collection[1], phi))
