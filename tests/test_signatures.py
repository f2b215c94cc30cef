"""Unit and property tests for the signature schemes (Sections 4 and 6)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import SetCollection
from repro.index.inverted import InvertedIndex
from repro.matching.score import matching_score
from repro.sim.functions import SimilarityFunction, SimilarityKind
from repro.signatures import SCHEME_NAMES, get_scheme
from repro.signatures.weights import NO_BUDGET, ElementWeights, weights_for
from strategies import collections, string_collections, string_sets, token_sets
from strategies.checks import assert_signature_matches_the_oracle


def _table2():
    """The paper's running example (Table 2), tokens t1..t12 -> a..l."""
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


def _first_weights(sets, phi, **kwargs):
    collection = SetCollection.from_strings(sets, kind=phi.kind, **kwargs)
    return weights_for(collection[0], phi)[0]


class TestElementWeights:
    def test_jaccard_bound(self):
        w = ElementWeights(SimilarityKind.JACCARD, alpha=0.0, length=5, n_tokens=5)
        assert w.bound(0) == 1.0
        assert w.bound(1) == pytest.approx(0.8)
        assert w.bound(5) == 0.0

    def test_edit_bound(self):
        w = ElementWeights(SimilarityKind.EDS, alpha=0.0, length=10, n_tokens=4)
        assert w.bound(0) == 1.0
        assert w.bound(2) == pytest.approx(10 / 12)

    def test_marginals_sum_to_bound_drop(self):
        w = ElementWeights(SimilarityKind.EDS, alpha=0.0, length=9, n_tokens=3)
        assert len(w.marginals) == 3
        assert sum(w.marginals) == pytest.approx(w.bounds[0] - w.bounds[3])

    @pytest.mark.parametrize("kind", list(SimilarityKind))
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
    def test_tables_are_the_bound_arithmetic(self, kind, alpha):
        for length in range(0, 7):
            for n_tokens in range(0, 7):
                w = ElementWeights(kind, alpha=alpha, length=length, n_tokens=n_tokens)
                bounds = [w.bound(s) for s in range(n_tokens + 1)]
                # Bit for bit: the table entries are the same expressions.
                assert w.bounds == tuple(bounds)
                assert w.marginals == tuple(
                    w.bound(s) - w.bound(s + 1) for s in range(n_tokens)
                )
                assert w.effective == tuple(
                    0.0 if s >= w.budget or raw < alpha else raw
                    for s, raw in enumerate(bounds)
                )

    def test_jaccard_budget_from_alpha(self):
        w = _first_weights([["a b c d e"]], SimilarityFunction(SimilarityKind.JACCARD, alpha=0.7))
        # floor((1 - 0.7) * 5) + 1 = 2, as in Example 10.
        assert w.budget == 2

    def test_edit_budget_from_alpha(self):
        w = _first_weights(
            [["abcdefghij"]], SimilarityFunction(SimilarityKind.EDS, alpha=0.8), q=2
        )
        # floor(0.2 / 0.8 * 10) + 1 = 3.
        assert w.budget == 3

    def test_no_budget_when_alpha_zero(self):
        w = _first_weights([["a b"]], SimilarityFunction(SimilarityKind.JACCARD, alpha=0.0))
        assert w.budget == NO_BUDGET

    def test_effective_saturation(self):
        w = ElementWeights(SimilarityKind.JACCARD, alpha=0.5, length=5, n_tokens=5)
        # Raw bound 0.6 >= alpha 0.5 at two tokens; saturation (budget 3)
        # zeroes the bound at three, where the raw 0.4 is below alpha too.
        assert w.budget == 3
        assert w.effective[2] == 0.6
        assert w.effective[3] == 0.0

    def test_empty_element_bound(self):
        w = ElementWeights(SimilarityKind.JACCARD, alpha=0.5, length=0, n_tokens=0)
        assert w.bound(0) == 1.0
        assert w.bounds == (1.0,) and w.marginals == ()
        assert w.budget == NO_BUDGET and w.effective == (1.0,)

    def test_one_table_per_shape(self):
        phi = SimilarityFunction(SimilarityKind.JACCARD, alpha=0.5)
        collection = SetCollection.from_strings([["a b c", "d e f", "g h"], ["c b a"]])
        first = weights_for(collection[0], phi)
        # Equal shapes share one table, across elements and sets ...
        assert first[0] is first[1] is weights_for(collection[1], phi)[0]
        assert first[2] is not first[0]
        # ... and alpha is part of the shape.
        other = weights_for(collection[0], SimilarityFunction(SimilarityKind.JACCARD, alpha=0.6))
        assert other[0] is not first[0]

    def test_registry_grows_by_the_distinct_shapes_only(self):
        from repro.signatures.weights import _shape

        rng = random.Random(5)
        # Long edit strings, each length three times: the registry must
        # grow by the distinct (length, chunk count) pairs, not by elements.
        texts = ["".join(rng.choice("abcdefgh") for _ in range(n)) for n in range(50, 600, 7)]
        collection = SetCollection.from_strings([texts * 3], kind=SimilarityKind.EDS, q=3)
        phi = SimilarityFunction(SimilarityKind.EDS, alpha=0.7731)
        shapes = {(e.length, len(e.signature_tokens)) for e in collection[0].elements}
        before = _shape.cache_info().currsize
        weights = weights_for(collection[0], phi)
        assert _shape.cache_info().currsize - before == len(shapes)
        assert len(weights) == 3 * len(texts)
        assert all(len(w.bounds) == w.n_tokens + 1 for w in weights)


class TestSchemeRegistry:
    def test_all_names_resolve(self):
        for name in SCHEME_NAMES:
            assert get_scheme(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_scheme("nope")


@pytest.mark.parametrize("scheme_name", ["weighted", "skyline", "dichotomy"])
class TestWeightedFamilyValidity:
    """Lemma 1 / Theorem 3: residual bound below theta."""

    def test_residual_below_theta(self, scheme_name):
        reference, collection = _table2()
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        index = InvertedIndex(collection)
        theta = 0.7 * len(reference)
        signature = get_scheme(scheme_name).generate(reference, theta, phi, index)
        assert signature is not None
        assert signature.residual < theta

    def test_per_element_tokens_subset_of_element(self, scheme_name):
        reference, collection = _table2()
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        index = InvertedIndex(collection)
        signature = get_scheme(scheme_name).generate(
            reference, 2.1, phi, index
        )
        for element, tokens in zip(reference.elements, signature.per_element):
            assert tokens <= element.signature_tokens

    def test_flattened_is_union_of_unflattened(self, scheme_name):
        reference, collection = _table2()
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        index = InvertedIndex(collection)
        signature = get_scheme(scheme_name).generate(reference, 2.1, phi, index)
        union = frozenset().union(*signature.per_element)
        assert signature.tokens == union


class TestWeightedSchemeAdversarial:
    """Lemma 2 via construction: S_i = r_i \\ k_i scores exactly the residual."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_adversarial_set_is_caught(self, seed):
        rng = random.Random(seed)
        vocab = [f"w{i}" for i in range(12)]
        sets = [
            [" ".join(rng.sample(vocab, rng.randint(2, 5))) for _ in range(rng.randint(1, 4))]
            for _ in range(8)
        ]
        collection = SetCollection.from_strings(sets)
        reference = collection[0]
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        index = InvertedIndex(collection)
        delta = 0.7
        theta = delta * len(reference)
        signature = get_scheme("weighted").generate(reference, theta, phi, index)
        assert signature is not None

        # Build the adversarial set S with s_i = r_i minus its signature
        # tokens.  Its matching score must be below theta (Lemma 1); and
        # it shares no token with the signature.
        vocab_obj = collection.vocabulary
        adversary = []
        for element, k_i in zip(reference.elements, signature.per_element):
            remaining = element.index_tokens - k_i
            adversary.append(" ".join(vocab_obj.token_of(t) for t in sorted(remaining)))
        sibling = collection.sibling()
        adversarial_record = sibling.add_set(adversary)

        shared = adversarial_record.token_universe & signature.tokens
        assert not shared
        score = matching_score(reference, adversarial_record, phi)
        assert score < theta + 1e-9


class TestUnweightedScheme:
    def test_example5_token_count(self):
        # theta = 2.1, c = 3: remove 2 occurrences; with whole-token
        # removal the two cheapest-to-remove... the greedy removes the
        # most expensive tokens whose occurrence counts fit budget 2.
        reference, collection = _table2()
        phi = SimilarityFunction(SimilarityKind.JACCARD)
        index = InvertedIndex(collection)
        signature = get_scheme("unweighted").generate(reference, 2.1, phi, index)
        assert signature is not None
        # The flattened signature keeps at least |occurrences| - 2 tokens.
        total_occurrences = sum(len(e.signature_tokens) for e in reference.elements)
        kept = sum(len(k) for k in signature.per_element)
        assert kept >= total_occurrences - 2

    def test_comb_unweighted_trims_to_budget(self):
        reference, collection = _table2()
        phi = SimilarityFunction(SimilarityKind.JACCARD, alpha=0.7)
        index = InvertedIndex(collection)
        signature = get_scheme("comb_unweighted").generate(reference, 2.1, phi, index)
        budget = 2  # floor(0.3 * 5) + 1
        for tokens in signature.per_element:
            assert len(tokens) <= 5  # never exceeds element size
        # At least one element must have been trimmed to the budget.
        assert any(len(tokens) <= budget for tokens in signature.per_element)


class TestSimThreshScheme:
    def test_requires_alpha(self):
        reference, collection = _table2()
        phi = SimilarityFunction(SimilarityKind.JACCARD, alpha=0.0)
        index = InvertedIndex(collection)
        assert get_scheme("sim_thresh").generate(reference, 2.1, phi, index) is None

    def test_example10_budget(self):
        reference, collection = _table2()
        phi = SimilarityFunction(SimilarityKind.JACCARD, alpha=0.7)
        index = InvertedIndex(collection)
        signature = get_scheme("sim_thresh").generate(reference, 2.1, phi, index)
        assert signature is not None
        # Example 10: |m_i| = 2 for every element.
        assert all(len(m) == 2 for m in signature.per_element)
        assert all(b == 0.0 for b in signature.element_bounds)


class TestSkylineAndDichotomy:
    def test_reduce_to_weighted_at_alpha_zero(self):
        reference, collection = _table2()
        phi = SimilarityFunction(SimilarityKind.JACCARD, alpha=0.0)
        index = InvertedIndex(collection)
        weighted = get_scheme("weighted").generate(reference, 2.1, phi, index)
        skyline = get_scheme("skyline").generate(reference, 2.1, phi, index)
        dichotomy = get_scheme("dichotomy").generate(reference, 2.1, phi, index)
        assert skyline.tokens == weighted.tokens
        assert dichotomy.tokens == weighted.tokens

    def test_skyline_respects_budget(self):
        reference, collection = _table2()
        phi = SimilarityFunction(SimilarityKind.JACCARD, alpha=0.7)
        index = InvertedIndex(collection)
        signature = get_scheme("skyline").generate(reference, 2.1, phi, index)
        assert signature is not None
        for tokens, bound in zip(signature.per_element, signature.element_bounds):
            if len(tokens) >= 2:  # budget = 2 at alpha 0.7 with |r| = 5
                assert bound == 0.0

    def test_dichotomy_example13_small_signature(self):
        # Example 13 ends with a 2-token signature {t11, t12}.
        reference, collection = _table2()
        phi = SimilarityFunction(SimilarityKind.JACCARD, alpha=0.7)
        index = InvertedIndex(collection)
        signature = get_scheme("dichotomy").generate(reference, 2.1, phi, index)
        assert signature is not None
        # Our greedy is cost-ordered, not identical to the paper's hand
        # trace, but the signature must be small (saturation shrinks it)
        # and valid.
        assert len(signature.tokens) <= 6

    def test_dichotomy_saturated_bounds_zero(self):
        reference, collection = _table2()
        phi = SimilarityFunction(SimilarityKind.JACCARD, alpha=0.7)
        index = InvertedIndex(collection)
        signature = get_scheme("dichotomy").generate(reference, 2.1, phi, index)
        for tokens, bound in zip(signature.per_element, signature.element_bounds):
            if len(tokens) >= 2:
                assert bound == 0.0


class TestEditSignatures:
    def _collection(self, q=2):
        sets = [
            ["silkmoth", "related", "matching"],
            ["silkmoth", "related", "matchings"],
            ["different", "words", "entirely"],
        ]
        return SetCollection.from_strings(sets, kind=SimilarityKind.EDS, q=q)

    def test_weighted_edit_residual(self):
        collection = self._collection()
        reference = collection[0]
        phi = SimilarityFunction(SimilarityKind.EDS)
        index = InvertedIndex(collection)
        theta = 0.7 * len(reference)
        signature = get_scheme("weighted").generate(reference, theta, phi, index)
        assert signature is not None
        assert signature.residual < theta

    def test_signature_tokens_are_chunks(self):
        collection = self._collection()
        reference = collection[0]
        phi = SimilarityFunction(SimilarityKind.EDS)
        index = InvertedIndex(collection)
        signature = get_scheme("weighted").generate(reference, 2.1, phi, index)
        for element, tokens in zip(reference.elements, signature.per_element):
            assert tokens <= element.signature_tokens

    def test_too_large_q_yields_no_signature(self):
        # Section 7.3: a too-large q empties the scheme.  With |r| = 30
        # and q = 20 there are 2 chunks, so the best achievable residual
        # is 30/32 = 0.9375; any theta at or below that admits no valid
        # signature and the engine must full-scan.
        sets = [["abcdefghij" * 3], ["abcdefghij" * 3]]
        collection = SetCollection.from_strings(sets, kind=SimilarityKind.EDS, q=20)
        reference = collection[0]
        phi = SimilarityFunction(SimilarityKind.EDS)
        index = InvertedIndex(collection)
        theta = 0.9 * len(reference)  # 0.9 < 0.9375
        signature = get_scheme("weighted").generate(reference, theta, phi, index)
        assert signature is None


#: Element thresholds and theta = delta * |R| fractions the identity
#: suite signs under: alpha 0 (no budget), mid and high.
ALPHAS = (0.0, 0.5, 0.9)
DELTAS = (0.1, 0.3, 0.5, 0.7, 0.85, 1.0)


@st.composite
def signing_cases(draw):
    """A mutated collection + index, and the references to sign.

    The references are the live sets plus one ``query_set`` holding an
    unseen token (an ephemeral negative id, list length 0).  Elements
    may be empty after tokenisation, and edit elements shorter than q
    offer no chunk at all.
    """
    kind = draw(st.sampled_from(list(SimilarityKind)))
    if kind.is_token_based:
        q, sets, one_set = 1, collections(min_sets=2), token_sets(0, 3)
        unseen = "zzz ivy"
    else:
        q = draw(st.sampled_from((1, 2, 3)))
        sets, one_set, unseen = string_collections(min_sets=2), string_sets(), "zyxw"
    collection = SetCollection.from_strings(draw(sets), kind=kind, q=q)
    index = InvertedIndex(collection)
    ops = st.one_of(
        st.tuples(st.just("add"), one_set),
        st.tuples(st.just("remove"), st.integers(0, 10)),
        st.tuples(st.just("update"), st.integers(0, 10), one_set),
        st.tuples(st.just("compact")),
    )
    for op in draw(st.lists(ops, max_size=5)):
        if op[0] == "add":
            index.add_record(collection.add_set(op[1]))
        elif op[0] == "compact":
            index.compact()
        elif collection.is_live(op[1] % len(collection)):
            set_id = op[1] % len(collection)
            if op[0] == "remove":
                index.note_removed(collection.remove_set(set_id))
            else:
                old, new = collection.replace_set(set_id, op[2])
                index.note_removed(old)
                index.add_record(new)
    query = collection.query_set(draw(one_set) + [unseen])
    return kind, index, list(collection.iter_live()) + [query]


def _assert_every_signature_matches(scheme_name, kind, index, references):
    for alpha in ALPHAS:
        phi = SimilarityFunction(kind, alpha)
        for reference in references:
            for delta in DELTAS:
                assert_signature_matches_the_oracle(
                    scheme_name, reference, delta * len(reference), phi, index
                )


@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
class TestSignatureIdentity:
    """Every scheme signs exactly what it signed when each bound and
    marginal was recomputed per occurrence (``strategies.checks``)."""

    @given(signing_cases())
    @settings(max_examples=30, deadline=None)
    def test_matches_the_oracle(self, scheme_name, case):
        _assert_every_signature_matches(scheme_name, *case)

    @pytest.mark.parametrize("kind", list(SimilarityKind))
    def test_degenerate_elements(self, scheme_name, kind):
        # Empty elements, edit elements shorter than q = 3 (no chunk),
        # and one element holding a token no set has.
        if kind.is_token_based:
            sets = [["", "ash bay", "bay"], ["ash", "elm fir oak"], ["", ""]]
            query = ["", "ash zzz", "bay"]
        else:
            sets = [["", "ab", "abcdef"], ["abc", "bcdefa"], ["", "a"]]
            query = ["", "ab", "zyxwvu", "abcd"]
        collection = SetCollection.from_strings(sets, kind=kind, q=3)
        index = InvertedIndex(collection)
        references = list(collection) + [collection.query_set(query)]
        _assert_every_signature_matches(scheme_name, kind, index, references)
