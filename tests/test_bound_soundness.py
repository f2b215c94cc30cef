"""Property tests: every bound the filters rely on is a true upper bound.

These are the load-bearing inequalities of the paper:

* Jaccard: ``phi(r, s) <= (|r| - |k|) / |r|`` when s shares no token
  with k (Section 4.2's Lemma 1 step).
* Edit: ``Eds(r, s) <= |r| / (|r| + |k|)`` when s shares no q-gram with
  the selected q-chunks k (Section 7.1).
* Sim-thresh saturation: with ``floor((1-a)|r|)+1`` (Jaccard) or
  ``floor((1-a)/a |r|)+1`` (edit) unshared signature tokens, phi < a
  (Sections 6.1, 7.2).
* NN no-share cap: ``Eds(r, s) <= |r| / (|r| + ceil(|r|/q))`` when s
  shares no q-gram at all with r (Section 7.1 / NN filter).
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import SetCollection
from repro.sim.functions import SimilarityFunction, SimilarityKind, eds, jaccard, neds
from repro.signatures.weights import weights_for

_WORDS = [f"w{i}" for i in range(20)]


@st.composite
def _jaccard_pair(draw):
    """A reference element, a chosen k subset, and a disjoint-from-k s."""
    r_tokens = draw(st.sets(st.sampled_from(_WORDS), min_size=1, max_size=8))
    k = draw(st.sets(st.sampled_from(sorted(r_tokens)), max_size=len(r_tokens)))
    s_pool = [w for w in _WORDS if w not in k]
    s_tokens = draw(st.sets(st.sampled_from(s_pool), min_size=1, max_size=8))
    return r_tokens, k, s_tokens


class TestJaccardBound:
    @given(_jaccard_pair())
    @settings(max_examples=200, deadline=None)
    def test_weighted_bound_holds(self, data):
        r_tokens, k, s_tokens = data
        bound = (len(r_tokens) - len(k)) / len(r_tokens)
        assert jaccard(r_tokens, s_tokens) <= bound + 1e-12

    @given(_jaccard_pair(), st.sampled_from([0.3, 0.5, 0.7, 0.9]))
    @settings(max_examples=200, deadline=None)
    def test_sim_thresh_saturation(self, data, alpha):
        r_tokens, _, s_tokens = data
        budget = math.floor((1 - alpha) * len(r_tokens)) + 1
        if budget > len(r_tokens):
            return
        k = set(sorted(r_tokens)[:budget])
        if k & s_tokens:
            return
        assert jaccard(r_tokens, s_tokens) < alpha + 1e-12


def _random_string(rng, length):
    return "".join(rng.choice("abcd") for _ in range(length))


class TestEditBounds:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_weighted_chunk_bound(self, seed, q):
        """Select some chunks of r; any s sharing none of them obeys the bound."""
        rng = random.Random(seed)
        collection = SetCollection.from_strings(
            [[_random_string(rng, rng.randint(2, 10))]],
            kind=SimilarityKind.EDS,
            q=q,
        )
        r = collection[0].elements[0]
        chunks = sorted(r.signature_tokens)
        k_size = rng.randint(0, len(chunks))
        k = set(chunks[:k_size])

        # Generate random candidate strings; keep only those sharing no
        # q-gram with k (token-level check via a sibling collection).
        sibling = collection.sibling()
        for _ in range(15):
            s_record = sibling.add_set([_random_string(rng, rng.randint(1, 12))])
            s = s_record.elements[0]
            if s.index_tokens & k:
                continue
            bound = r.length / (r.length + len(k))
            assert eds(r.text, s.text) <= bound + 1e-12
            assert neds(r.text, s.text) <= bound + 1e-12

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_no_share_cap(self, seed, q):
        """s sharing no q-gram at all with r obeys the ceil(|r|/q) cap."""
        rng = random.Random(seed)
        collection = SetCollection.from_strings(
            [[_random_string(rng, rng.randint(2, 10))]],
            kind=SimilarityKind.EDS,
            q=q,
        )
        r = collection[0].elements[0]
        sibling = collection.sibling()
        for _ in range(15):
            s_record = sibling.add_set([_random_string(rng, rng.randint(1, 12))])
            s = s_record.elements[0]
            if s.index_tokens & r.index_tokens:
                continue
            cap = r.length / (r.length + math.ceil(r.length / q))
            assert eds(r.text, s.text) <= cap + 1e-12

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_edit_sim_thresh_saturation(self, seed):
        """Budget-many unshared chunks force similarity below alpha."""
        rng = random.Random(seed)
        alpha = rng.choice([0.6, 0.7, 0.8])
        q = 2
        phi = SimilarityFunction(SimilarityKind.EDS, alpha=alpha)
        collection = SetCollection.from_strings(
            [[_random_string(rng, rng.randint(4, 12))]],
            kind=SimilarityKind.EDS,
            q=q,
        )
        r = collection[0].elements[0]
        weights = weights_for(collection[0], phi)[0]
        chunks = sorted(r.signature_tokens)
        if weights.budget > len(chunks):
            return
        k = set(chunks[: weights.budget])
        sibling = collection.sibling()
        for _ in range(15):
            s_record = sibling.add_set([_random_string(rng, rng.randint(1, 14))])
            s = s_record.elements[0]
            if s.index_tokens & k:
                continue
            assert eds(r.text, s.text) < alpha + 1e-12
