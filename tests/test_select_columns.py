"""The columnar select against the per-posting oracle, column by column.

:func:`repro.filters.check._gather_packed` emits the candidate batch's
columns directly -- no object per surfaced set.  These suites pin every
column to what the original loop (``_gather_reference``, kept verbatim
in ``src/``) produces for the same probe: ``set_ids``, ``sizes`` and
``gains`` bit for bit, ``best`` including the maps' insertion order
(downstream float summation observes it), plus the three select-funnel
counters against a first-principles count (per posting key for the
edit kinds, per distinct content for the token kinds) -- for every
similarity kind, with the numpy kernels on and off, under self-match
skips, candidate floors, tombstones before and after compaction, every
size-window shape, empty and duplicate elements, and member as well as
``query_set`` references.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.baselines.brute_force import brute_force_discover, brute_force_search
from repro.core.config import SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.filters import check
from repro.index.inverted import InvertedIndex
from repro.sim.functions import SimilarityFunction, SimilarityKind
from repro.sim.memo import SimilarityMemo
from repro.signatures.base import Signature
from strategies import (
    EDIT_KINDS,
    TOKEN_KINDS,
    collections,
    string_collections,
    string_sets,
    token_sets,
)
from strategies.checks import (
    WINDOWS,
    assert_columns_match_the_oracle,
    select_probe,
)
from strategies.kernels import KERNEL_MODES, LOADED_KERNEL_MODES, kernel_mode

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    # Short strings admit a weighted signature only at high thetas.
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@pytest.mark.parametrize("kernels", KERNEL_MODES)
class TestColumnsMatchTheOracle:
    """Probes this small only reach the numpy kernels with the gates at 0,
    so every case runs with them on and off."""

    @_SETTINGS
    @given(
        sets=collections(min_sets=2, max_sets=7),
        reference_elements=token_sets(min_elements=1, max_elements=4),
        member=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
        skip_self=st.booleans(),
        kind=st.sampled_from(TOKEN_KINDS),
        alpha=st.sampled_from((0.0, 0.5)),
        delta=st.sampled_from((0.3, 0.7)),
        slack=st.sampled_from((0.0, 0.4)),
        dead=st.frozensets(st.integers(min_value=0, max_value=6), max_size=2),
        compacted=st.booleans(),
        window=st.sampled_from(WINDOWS),
        floor=st.sampled_from((0, 0, 1, 3)),
    )
    def test_token_kinds(
        self, kernels, sets, reference_elements, member, skip_self,
        kind, alpha, delta, slack, dead, compacted, window, floor,
    ):
        collection, index, reference, phi, signature, stored = select_probe(
            sets, reference_elements, member, kind, alpha, delta, slack, dead,
            compacted,
        )
        skip = reference.set_id if member is not None and skip_self else None
        with kernel_mode(kernels):
            assert_columns_match_the_oracle(
                reference, signature, index, phi, collection, window, skip,
                get_backend(), (None, None), stored, floor,
            )

    @_SETTINGS
    @given(
        sets=string_collections(min_sets=2, max_sets=6),
        reference_elements=string_sets(min_elements=1, max_elements=3),
        member=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
        kind=st.sampled_from(EDIT_KINDS),
        alpha=st.sampled_from((0.0, 0.35, 0.6)),
        delta=st.sampled_from((0.7, 0.9)),
        slack=st.sampled_from((0.0, 0.4)),
        q=st.sampled_from((1, 2)),
        memoized=st.booleans(),
        dead=st.frozensets(st.integers(min_value=0, max_value=5), max_size=2),
        compacted=st.booleans(),
        window=st.sampled_from(WINDOWS),
        floor=st.sampled_from((0, 0, 1, 3)),
    )
    def test_edit_kinds(
        self, kernels, sets, reference_elements, member, kind, alpha,
        delta, slack, q, memoized, dead, compacted, window, floor,
    ):
        collection, index, reference, phi, signature, stored = select_probe(
            sets, reference_elements, member, kind, alpha, delta, slack, dead,
            compacted, q,
        )
        memos = (
            (SimilarityMemo(capacity=64), SimilarityMemo(capacity=64))
            if memoized
            else (None, None)
        )
        with kernel_mode(kernels):
            assert_columns_match_the_oracle(
                reference, signature, index, phi, collection, window,
                reference.set_id if member is not None else None,
                get_backend(), memos, stored, floor,
            )


def test_a_set_witnessed_by_several_elements_keeps_element_order():
    # Set 1 beats the bound through reference elements 0 and 2, and --
    # via its empty element -- through the empty reference element 1,
    # which the probe only reaches in its closing phase: insertion
    # order is 0, 2, 1, and the gain is summed in that order.  (The
    # schemes bound an empty element by 1.0, which nothing beats, so
    # the signature is written out by hand.)
    collection = SetCollection.from_strings(
        [["a b c", "", "d e f"], ["a b c", "d e f", ""], ["x y", ""], ["a q"]]
    )
    index = InvertedIndex(collection)
    phi = SimilarityFunction(SimilarityKind.JACCARD, 0.0)
    reference = collection[0]
    vocabulary = collection.vocabulary
    per_element = (
        frozenset({vocabulary.id_of("a")}),
        frozenset(),
        frozenset({vocabulary.id_of("d")}),
    )
    bounds = (0.3, 0.5, 0.3)
    signature = Signature(
        frozenset().union(*per_element), per_element, bounds, "by-hand"
    )
    for kernels in LOADED_KERNEL_MODES:
        with kernel_mode(kernels):
            set_ids, sizes, gains, best = check._gather_packed(
                reference, signature, index, phi, collection, None, 0,
                get_backend(), None, None, None,
            )
        # Set 3 shares a token but stays under the bound: surfaced, no witness.
        assert set_ids == [1, 2, 3] and sizes == [3, 2, 1]
        assert [list(w.items()) for w in best] == [
            [(0, 1.0), (2, 1.0), (1, 1.0)], [(1, 1.0)], []
        ]
        assert gains == [((0.0 + (1.0 - 0.3)) + (1.0 - 0.3)) + (1.0 - 0.5), 0.5, 0.0]


@pytest.mark.parametrize("kernels", KERNEL_MODES)
@pytest.mark.parametrize("tombstone", [False, True])
def test_a_floored_probe_skips_a_token_held_only_below_the_floor(
    kernels, tombstone
):
    """``ash`` is held below the floor only -- or, with *tombstone*, also
    by one tombstoned set above it.  Unread in the first case, read in
    the second: either way the columns equal the per-occurrence
    oracle's and the rows equal brute force from the floor on."""
    sets = [["ash bay"], ["ash elm", "fir"], ["bay fir"], ["oak", "fir"]]
    if tombstone:
        sets.append(["ash bay"])
    collection = SetCollection.from_strings(sets)
    if tombstone:
        collection.remove_set(4)
    index = InvertedIndex(collection)
    reference = collection.query_set(["ash bay", "fir"])
    per_element = tuple(e.index_tokens for e in reference.elements)
    signature = Signature(
        frozenset().union(*per_element), per_element, (0.0, 0.0), "by-hand"
    )
    ash = collection.vocabulary.id_of("ash")
    opened = []
    content_ids = index.content_ids

    def recording(token):
        opened.append(token)
        return content_ids(token)

    index.content_ids = recording
    phi = SimilarityFunction(SimilarityKind.JACCARD, 0.0)
    with kernel_mode(kernels):
        assert_columns_match_the_oracle(
            reference, signature, index, phi, collection, None, None,
            get_backend(), (None, None), range(len(sets)), first_set=2,
        )
        config = SilkMothConfig(delta=0.3)
        engine = SilkMoth(collection, config, index)
        rows = engine.search(reference, first_set=2)
    assert (ash in opened) is tombstone
    expected = [
        r for r in brute_force_search(reference, collection, config)
        if r.set_id >= 2
    ]
    assert rows == expected and [r.set_id for r in rows] == [3]


@pytest.mark.parametrize("kernels", KERNEL_MODES)
def test_engine_and_brute_force_agree(kernels):
    rng = random.Random(15)
    words = ["ash", "bay", "elm", "fir", "ivy", "oak", "sky", "yew", "zed"]
    sets = [
        [
            " ".join(rng.sample(words, rng.randint(0, 4)))
            for _ in range(rng.randint(1, 4))
        ]
        for _ in range(40)
    ]
    config = SilkMothConfig(similarity=SimilarityKind.JACCARD, delta=0.6)
    with kernel_mode(kernels):
        engine = SilkMoth(SetCollection.from_strings(sets), config)
        pairs = [(p.reference_id, p.set_id) for p in engine.discover()]
    assert engine.stats.select_distinct_pairs > 0
    oracle = brute_force_discover(SetCollection.from_strings(sets), config)
    assert pairs == [(p.reference_id, p.set_id) for p in oracle]
