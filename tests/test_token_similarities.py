"""Dice, cosine and overlap: unit tests and signature-bound soundness.

These are the "other similarity functions in these two categories"
Section 2.1 says SilkMoth can support.  The crucial invariants are the
kind-specific signature bounds in :mod:`repro.signatures.weights`: each
must genuinely upper-bound the similarity of any element sharing at
most ``length - selected`` tokens, otherwise signatures would drop true
results.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.core.records import SetCollection
from repro.index.inverted import InvertedIndex
from repro.sim.functions import (
    SimilarityFunction,
    SimilarityKind,
    cosine,
    dice,
    jaccard,
    overlap,
)
from repro.signatures.weights import ElementWeights, _sim_thresh_budget

TOKEN_KINDS = [
    SimilarityKind.JACCARD,
    SimilarityKind.DICE,
    SimilarityKind.COSINE,
    SimilarityKind.OVERLAP,
]


class TestDice:
    def test_identical(self):
        assert dice({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint(self):
        assert dice({"a"}, {"b"}) == 0.0

    def test_half(self):
        # |inter| = 1, sizes 2 and 2 -> 2*1/4.
        assert dice({"a", "b"}, {"a", "c"}) == pytest.approx(0.5)

    def test_both_empty(self):
        assert dice(set(), set()) == 1.0

    def test_one_empty(self):
        assert dice(set(), {"a"}) == 0.0

    def test_accepts_lists(self):
        assert dice(["a", "b"], ["b", "c"]) == pytest.approx(0.5)

    def test_dominates_jaccard(self):
        # Dice >= Jaccard always (2x/(a+b) >= x/(a+b-x)).
        rng = random.Random(5)
        universe = [f"t{i}" for i in range(12)]
        for _ in range(100):
            x = set(rng.sample(universe, rng.randint(1, 8)))
            y = set(rng.sample(universe, rng.randint(1, 8)))
            assert dice(x, y) >= jaccard(x, y) - 1e-12


class TestCosine:
    def test_identical(self):
        assert cosine({"a", "b", "c"}, {"a", "b", "c"}) == 1.0

    def test_disjoint(self):
        assert cosine({"a"}, {"b"}) == 0.0

    def test_simple(self):
        # |inter| = 1, |x| = 1, |y| = 4 -> 1/2.
        assert cosine({"a"}, {"a", "b", "c", "d"}) == pytest.approx(0.5)

    def test_between_jaccard_and_overlap(self):
        rng = random.Random(6)
        universe = [f"t{i}" for i in range(12)]
        for _ in range(100):
            x = set(rng.sample(universe, rng.randint(1, 8)))
            y = set(rng.sample(universe, rng.randint(1, 8)))
            assert jaccard(x, y) - 1e-12 <= cosine(x, y) <= overlap(x, y) + 1e-12


class TestOverlap:
    def test_identical(self):
        assert overlap({"a"}, {"a"}) == 1.0

    def test_subset_is_one(self):
        assert overlap({"a", "b"}, {"a", "b", "c", "d"}) == 1.0

    def test_disjoint(self):
        assert overlap({"a"}, {"b"}) == 0.0

    def test_partial(self):
        assert overlap({"a", "b", "c"}, {"a", "x", "y"}) == pytest.approx(1 / 3)


class TestKindProperties:
    def test_token_based_flags(self):
        for kind in TOKEN_KINDS:
            assert kind.is_token_based
            assert not kind.is_edit_based

    def test_reduction_support(self):
        assert SimilarityKind.JACCARD.supports_reduction
        assert SimilarityKind.EDS.supports_reduction
        for kind in (
            SimilarityKind.DICE,
            SimilarityKind.COSINE,
            SimilarityKind.OVERLAP,
            SimilarityKind.NEDS,
        ):
            assert not kind.supports_reduction

    def test_dice_dual_violates_triangle_inequality(self):
        # Witness that 1 - dice is not a metric, justifying the
        # reduction restriction: d(x,z) > d(x,y) + d(y,z).
        x = {"a"}
        y = {"a", "b"}
        z = {"b"}
        d_xz = 1 - dice(x, z)
        d_xy = 1 - dice(x, y)
        d_yz = 1 - dice(y, z)
        assert d_xz > d_xy + d_yz

    def test_overlap_dual_violates_triangle_inequality(self):
        x = {"a"}
        y = {"a", "b"}
        z = {"b"}
        assert 1 - overlap(x, z) > (1 - overlap(x, y)) + (1 - overlap(y, z))

    def test_raw_tokens_dispatch(self):
        x, y = {"a", "b"}, {"a", "c"}
        assert SimilarityFunction(SimilarityKind.DICE).raw_tokens(x, y) == dice(x, y)
        assert SimilarityFunction(SimilarityKind.COSINE).raw_tokens(x, y) == cosine(
            x, y
        )
        assert SimilarityFunction(SimilarityKind.OVERLAP).raw_tokens(x, y) == overlap(
            x, y
        )

    def test_raw_tokens_rejects_edit_kinds(self):
        with pytest.raises(ValueError):
            SimilarityFunction(SimilarityKind.EDS).raw_tokens({"a"}, {"a"})

    def test_strings_interface_splits_words(self):
        phi = SimilarityFunction(SimilarityKind.DICE)
        assert phi("a b", "a c") == pytest.approx(0.5)


def _token_sim(kind: SimilarityKind, x: set, y: set) -> float:
    return SimilarityFunction(kind).raw_tokens(x, y)


class TestBoundSoundness:
    """The weighted bound must dominate the true similarity.

    For element r with ``selected`` signature tokens removed from play,
    any s sharing none of the selected tokens shares at most
    ``len(r) - selected`` tokens with r.  We enumerate adversarial s
    (all subsets of the remainder, padded with fresh tokens) and check
    ``phi(r, s) <= bound``.
    """

    @pytest.mark.parametrize("kind", TOKEN_KINDS)
    def test_bound_dominates_all_adversaries(self, kind):
        rng = random.Random(11)
        for trial in range(40):
            length = rng.randint(1, 6)
            r = {f"t{i}" for i in range(length)}
            selected = rng.randint(0, length)
            remainder = sorted(r)[: length - selected]
            weights = ElementWeights(
                kind=kind, length=length, n_tokens=length, budget=1 << 60
            )
            bound = weights.bound(selected)
            # Adversarial s: any subset of the remainder plus fresh tokens.
            for mask in range(1 << len(remainder)):
                shared = {
                    tok for b, tok in enumerate(remainder) if mask >> b & 1
                }
                for extra in (0, 1, 3):
                    s = shared | {f"fresh{trial}_{k}" for k in range(extra)}
                    if not s:
                        continue
                    assert _token_sim(kind, r, s) <= bound + 1e-9, (
                        kind,
                        length,
                        selected,
                        s,
                    )

    @pytest.mark.parametrize("kind", TOKEN_KINDS)
    def test_bound_monotone_nonincreasing(self, kind):
        weights = ElementWeights(kind=kind, length=8, n_tokens=8, budget=1 << 60)
        bounds = [weights.bound(k) for k in range(9)]
        for a, b in zip(bounds, bounds[1:]):
            assert b <= a + 1e-12

    @pytest.mark.parametrize("kind", TOKEN_KINDS)
    def test_full_selection_bound_zero(self, kind):
        weights = ElementWeights(kind=kind, length=5, n_tokens=5, budget=1 << 60)
        assert weights.bound(5) == 0.0


class TestSimThreshBudgets:
    """Selecting ``budget`` tokens must force non-matching sims below alpha."""

    @pytest.mark.parametrize("kind", TOKEN_KINDS)
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_budget_forces_below_alpha(self, kind, alpha):
        for length in range(1, 9):
            budget = _sim_thresh_budget(kind, length, alpha)
            assert 1 <= budget <= length, (kind, length, alpha, budget)
            # Any s sharing at most length - budget tokens of r must
            # score < alpha; the adversarial best is s = exactly the
            # shared tokens (maximises every token-based sim).
            max_shared = length - budget
            r = {f"t{i}" for i in range(length)}
            if max_shared == 0:
                continue  # any disjoint s scores 0 < alpha
            s = {f"t{i}" for i in range(max_shared)}
            assert _token_sim(kind, r, s) < alpha, (kind, length, alpha)

    @pytest.mark.parametrize("kind", TOKEN_KINDS)
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_budget_minimal(self, kind, alpha):
        # One fewer token than the budget admits an adversary reaching
        # alpha -- except for kinds whose budget formula is conservative
        # (only Jaccard and overlap budgets are exactly tight).
        if kind not in (SimilarityKind.JACCARD, SimilarityKind.OVERLAP):
            pytest.skip("budget tightness is only guaranteed for Jaccard/overlap")
        for length in range(1, 9):
            budget = _sim_thresh_budget(kind, length, alpha)
            if budget <= 1:
                continue
            max_shared = length - (budget - 1)
            r = {f"t{i}" for i in range(length)}
            s = {f"t{i}" for i in range(max_shared)}
            assert _token_sim(kind, r, s) >= alpha - 1e-9, (kind, length, alpha)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(TOKEN_KINDS),
)
def test_property_symmetry_and_range(data, kind):
    universe = [f"w{i}" for i in range(10)]
    x = set(data.draw(st.lists(st.sampled_from(universe), max_size=8)))
    y = set(data.draw(st.lists(st.sampled_from(universe), max_size=8)))
    sim = _token_sim(kind, x, y) if x or y else 1.0
    assert 0.0 <= sim <= 1.0 + 1e-12
    if x and y:
        assert sim == pytest.approx(_token_sim(kind, y, x))
        if x == y:
            assert sim == pytest.approx(1.0)


@pytest.mark.parametrize("kind", TOKEN_KINDS)
@pytest.mark.parametrize("alpha", [0.0, 0.4])
def test_indexed_similarities_are_the_scalar_formulas(kind, alpha):
    # Select's scoring kernel, gathered off the index's content table.
    rng = random.Random(13)
    words = ["aa", "bb", "cc", "dd", "ee", "ff"]
    sets = [
        [
            " ".join(rng.choice(words) for _ in range(rng.randint(0, 4)))
            for _ in range(rng.randint(1, 5))
        ]
        for _ in range(12)
    ]
    collection = SetCollection.from_strings(sets, kind=kind)
    phi = SimilarityFunction(kind=kind, alpha=alpha)
    index = InvertedIndex(collection)
    contents = index.content_records()
    ids = list(range(len(contents)))
    rng.shuffle(ids)
    probes = [
        collection[0].elements[0].index_tokens,
        frozenset(),
        # Ephemeral ids from a non-interned query reference.
        collection.query_set(["aa zz unseen", ""]).elements[0].index_tokens,
    ]
    for probe in probes:
        expected = [phi.tokens(probe, contents[c].index_tokens) for c in ids]
        backend = get_backend()
        got = backend.indexed_token_similarities(probe, contents, ids, phi)
        assert got == expected
        assert all(type(score) is float for score in got)
