"""The headline invariant: SilkMoth is exact.

For random inputs and every combination of metric x similarity x scheme
x filter toggles, the engine must return exactly the same related pairs
as the brute-force oracle (the paper's central correctness claim).
Every case runs twice: with the numpy kernels taking every posting
merge and edit batch, and with none of them (``strategies.kernels``) --
inputs this small never reach the kernels' default gates.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import brute_force_discover, brute_force_search
from repro.core.config import Relatedness, SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.sim.functions import SimilarityKind
from repro.signatures import SCHEME_NAMES
from strategies.kernels import kernel_axis  # noqa: F401 (autouse axis)


def _random_jaccard_sets(rng, n_sets, vocab_size=10, max_elements=4, max_words=4):
    vocab = [f"w{i}" for i in range(vocab_size)]
    sets = []
    for _ in range(n_sets):
        elements = [
            " ".join(rng.sample(vocab, rng.randint(1, max_words)))
            for _ in range(rng.randint(1, max_elements))
        ]
        sets.append(elements)
    # Plant near-duplicates so related pairs actually exist.
    for i in range(0, n_sets - 1, 3):
        sets[i + 1] = list(sets[i])
        if sets[i + 1] and rng.random() < 0.7:
            j = rng.randrange(len(sets[i + 1]))
            sets[i + 1][j] = " ".join(
                rng.sample(vocab, rng.randint(1, max_words))
            )
    return sets


def _random_strings(rng, n_sets, max_elements=3):
    base_words = ["silkmoth", "matching", "related", "signature", "filter"]
    sets = []
    for _ in range(n_sets):
        elements = []
        for _ in range(rng.randint(1, max_elements)):
            word = rng.choice(base_words)
            if rng.random() < 0.5:
                chars = list(word)
                pos = rng.randrange(len(chars))
                chars[pos] = rng.choice("abcdefgh")
                word = "".join(chars)
            elements.append(word)
        sets.append(elements)
    return sets


def _pair_keys(pairs):
    return sorted((p.reference_id, p.set_id) for p in pairs)


def _assert_discovery_exact(collection, config):
    engine = SilkMoth(collection, config)
    got = engine.discover()
    expected = brute_force_discover(collection, config)
    assert _pair_keys(got) == _pair_keys(expected)
    # Scores must agree too.
    got_scores = {(p.reference_id, p.set_id): p.score for p in got}
    for p in expected:
        assert got_scores[(p.reference_id, p.set_id)] == pytest.approx(p.score)


class TestExactnessJaccard:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize("metric", [Relatedness.SIMILARITY, Relatedness.CONTAINMENT])
    def test_all_schemes_and_metrics(self, scheme, metric):
        rng = random.Random(42)
        sets = _random_jaccard_sets(rng, 24)
        collection = SetCollection.from_strings(sets)
        config = SilkMothConfig(
            metric=metric, delta=0.6, alpha=0.4, scheme=scheme
        )
        _assert_discovery_exact(collection, config)

    @pytest.mark.parametrize("check_filter", [False, True])
    @pytest.mark.parametrize("nn_filter", [False, True])
    @pytest.mark.parametrize("reduction", [False, True])
    def test_all_filter_toggles(self, check_filter, nn_filter, reduction):
        rng = random.Random(7)
        sets = _random_jaccard_sets(rng, 20)
        collection = SetCollection.from_strings(sets)
        config = SilkMothConfig(
            metric=Relatedness.SIMILARITY,
            delta=0.7,
            alpha=0.0,
            check_filter=check_filter,
            nn_filter=nn_filter,
            reduction=reduction,
        )
        _assert_discovery_exact(collection, config)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.5, 0.7, 0.9]),
        st.sampled_from([0.0, 0.3, 0.6]),
        st.sampled_from(sorted(SCHEME_NAMES)),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_similarity_discovery(self, seed, delta, alpha, scheme):
        rng = random.Random(seed)
        sets = _random_jaccard_sets(rng, 15)
        collection = SetCollection.from_strings(sets)
        config = SilkMothConfig(
            metric=Relatedness.SIMILARITY, delta=delta, alpha=alpha, scheme=scheme
        )
        _assert_discovery_exact(collection, config)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.5, 0.8]),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_containment_search(self, seed, delta):
        rng = random.Random(seed)
        sets = _random_jaccard_sets(rng, 15)
        collection = SetCollection.from_strings(sets)
        config = SilkMothConfig(metric=Relatedness.CONTAINMENT, delta=delta)
        engine = SilkMoth(collection, config)
        for ref_id in range(0, len(collection), 4):
            reference = collection[ref_id]
            got = engine.search(reference, skip_set=ref_id)
            expected = brute_force_search(
                reference, collection, config, skip_set=ref_id
            )
            assert sorted(r.set_id for r in got) == sorted(
                r.set_id for r in expected
            )


class TestExactnessEdit:
    @pytest.mark.parametrize("kind", [SimilarityKind.EDS, SimilarityKind.NEDS])
    @pytest.mark.parametrize("scheme", ["weighted", "skyline", "dichotomy", "comb_unweighted"])
    def test_edit_discovery(self, kind, scheme):
        rng = random.Random(11)
        sets = _random_strings(rng, 16)
        config = SilkMothConfig(
            metric=Relatedness.SIMILARITY,
            similarity=kind,
            delta=0.6,
            alpha=0.7,
            scheme=scheme,
        )
        collection = SetCollection.from_strings(
            sets, kind=kind, q=config.effective_q
        )
        _assert_discovery_exact(collection, config)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_random_edit_discovery(self, seed):
        rng = random.Random(seed)
        sets = _random_strings(rng, 12)
        config = SilkMothConfig(
            metric=Relatedness.SIMILARITY,
            similarity=SimilarityKind.EDS,
            delta=0.7,
            alpha=0.8,
        )
        collection = SetCollection.from_strings(
            sets, kind=SimilarityKind.EDS, q=config.effective_q
        )
        _assert_discovery_exact(collection, config)

    def test_edit_alpha_zero_full_pipeline(self):
        # alpha = 0 with edit similarity exercises the no-share cap in
        # the NN filter; exactness must still hold.
        rng = random.Random(3)
        sets = _random_strings(rng, 10)
        config = SilkMothConfig(
            metric=Relatedness.SIMILARITY,
            similarity=SimilarityKind.EDS,
            delta=0.6,
            alpha=0.0,
            q=2,
        )
        collection = SetCollection.from_strings(
            sets, kind=SimilarityKind.EDS, q=2
        )
        _assert_discovery_exact(collection, config)


class TestExactnessOtherTokenKinds:
    """Dice, cosine and overlap must be exact end-to-end too.

    These kinds have looser (valid-but-not-complete) signature bounds,
    so exactness here specifically guards the Lemma 1 direction: no
    true result may be dropped by signatures or filters.
    """

    TOKEN_KINDS = [
        SimilarityKind.DICE,
        SimilarityKind.COSINE,
        SimilarityKind.OVERLAP,
    ]

    @pytest.mark.parametrize("kind", TOKEN_KINDS)
    @pytest.mark.parametrize("scheme", sorted(SCHEME_NAMES))
    def test_all_schemes(self, kind, scheme):
        rng = random.Random(13)
        sets = _random_jaccard_sets(rng, 20)
        collection = SetCollection.from_strings(sets, kind=kind)
        config = SilkMothConfig(
            metric=Relatedness.SIMILARITY,
            similarity=kind,
            delta=0.7,
            alpha=0.0,
            scheme=scheme,
        )
        _assert_discovery_exact(collection, config)

    @pytest.mark.parametrize("kind", TOKEN_KINDS)
    @pytest.mark.parametrize("alpha", [0.3, 0.6])
    def test_with_alpha(self, kind, alpha):
        rng = random.Random(14)
        sets = _random_jaccard_sets(rng, 18)
        collection = SetCollection.from_strings(sets, kind=kind)
        config = SilkMothConfig(
            metric=Relatedness.SIMILARITY,
            similarity=kind,
            delta=0.6,
            alpha=alpha,
        )
        _assert_discovery_exact(collection, config)

    @pytest.mark.parametrize("kind", TOKEN_KINDS)
    def test_containment_search(self, kind):
        rng = random.Random(15)
        sets = _random_jaccard_sets(rng, 18)
        collection = SetCollection.from_strings(sets, kind=kind)
        config = SilkMothConfig(
            metric=Relatedness.CONTAINMENT, similarity=kind, delta=0.7
        )
        engine = SilkMoth(collection, config)
        for ref_id in range(0, len(collection), 5):
            reference = collection[ref_id]
            got = engine.search(reference, skip_set=ref_id)
            expected = brute_force_search(
                reference, collection, config, skip_set=ref_id
            )
            assert sorted(r.set_id for r in got) == sorted(
                r.set_id for r in expected
            )

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([SimilarityKind.DICE, SimilarityKind.COSINE]),
        st.sampled_from([0.0, 0.4]),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_discovery(self, seed, kind, alpha):
        rng = random.Random(seed)
        sets = _random_jaccard_sets(rng, 14)
        collection = SetCollection.from_strings(sets, kind=kind)
        config = SilkMothConfig(
            metric=Relatedness.SIMILARITY,
            similarity=kind,
            delta=0.6,
            alpha=alpha,
        )
        _assert_discovery_exact(collection, config)
