"""The columnar select against the per-posting oracle, column by column.

:func:`repro.filters.check._gather_packed` emits the surfaced set ids
and the witnessed rows -- no object per surfaced set.  These suites pin
them to what the original loop (``gather_reference``, kept in
``strategies/checks.py``) produces for the same probe: the surfaced ids,
and per witnessed set its gain bit for bit and its ``best`` map
including the insertion order (downstream float summation observes
it); the check filter's columns, on and off, to the dense rule's
(``dense_check``); plus the three select-funnel
counters against a first-principles count (per posting key for the
edit kinds, per distinct content for the token kinds) -- for every
similarity kind, with the numpy kernels on and off, under self-match
skips, candidate floors, tombstones before and after compaction, every
size-window shape, empty and duplicate elements, and member as well as
``query_set`` references.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import ComputeBackend, get_backend
from repro.baselines.brute_force import brute_force_discover, brute_force_search
from repro.core.config import SilkMothConfig
from repro.core.constants import EPSILON
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.core.stats import PassStats
from repro.filters import check
from repro.index.inverted import InvertedIndex
from repro.pipeline import PipelineState, QueryPlan
from repro.sim.functions import SimilarityFunction, SimilarityKind
from repro.sim.memo import SimilarityMemo
from repro.signatures import get_scheme
from repro.signatures.base import Signature, SignedReference
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
    assert_same_columns,
    dense_check,
    gather_reference,
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
            surfaced, (set_ids, gains, best) = check._gather_packed(
                reference, signature, index, phi, collection, None, 0,
                get_backend(), None, None, None,
            )
        # Set 3 shares a token but stays under the bound: surfaced, no row.
        assert surfaced == [1, 2, 3] and set_ids == [1, 2]
        assert [list(w.items()) for w in best] == [
            [(0, 1.0), (2, 1.0), (1, 1.0)], [(1, 1.0)]
        ]
        assert gains == [((0.0 + (1.0 - 0.3)) + (1.0 - 0.3)) + (1.0 - 0.5), 0.5]


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


# ----------------------------------------------------------------------
# The check stage's batch, and the overlap bound inside the probe
# ----------------------------------------------------------------------
def _stage_batch(reference, signature, collection, index, config):
    """The batch the signature, select and check stages leave behind."""
    plan = QueryPlan.build(
        SignedReference(reference, signature), config, collection, index
    )
    state, stats = PipelineState(), PassStats()
    for stage in plan.stages[:3]:
        stage.run(plan, state, stats)
    assert stats.initial_candidates == len(state.surfaced)
    assert stats.after_check == len(state.batch)
    batch = state.batch
    return plan, (batch.set_ids, batch.gains, batch.estimates, batch.best)


@pytest.mark.parametrize("kernels", KERNEL_MODES)
@pytest.mark.parametrize("check_filter", [True, False])
@pytest.mark.parametrize("bounds", ["scheme", "loose"])
@pytest.mark.parametrize("kind", [SimilarityKind.JACCARD, SimilarityKind.EDS])
def test_the_check_stage_batch_equals_the_dense_rule(
    kernels, check_filter, bounds, kind
):
    """The batch after check -- ids, gains, estimates, best maps and their
    key order -- equals the dense rule over the oracle's rows, with the
    check on and off, and with a hand-built signature (every bound 1.0)
    whose residual reaches the cutoff, so unwitnessed sets survive."""
    rng = random.Random(44)
    words = ["ash", "bay", "elm", "fir", "ivy", "oak", "sky", "yew"]
    sets = [
        [" ".join(rng.sample(words, rng.randint(1, 3))) for _ in range(3)]
        for _ in range(30)
    ] + [["", "ash bay"]]
    collection = SetCollection.from_strings(sets, kind=kind, q=2)
    index = InvertedIndex(collection)
    config = SilkMothConfig(
        similarity=kind, delta=0.5 if kind.is_token_based else 0.8, q=2,
        check_filter=check_filter, nn_filter=False,
    )
    reference = collection.query_set(["ash bay", "elm fir", ""])
    signature = get_scheme("weighted").generate(
        reference, config.delta * len(reference) - EPSILON, config.phi, index
    )
    assert signature is not None
    if bounds == "loose":
        signature = replace(
            signature, element_bounds=(1.0,) * len(reference), scheme="by-hand"
        )
    with kernel_mode(kernels):
        plan, got = _stage_batch(reference, signature, collection, index, config)
        assert plan.stages[0].enabled  # a probed pass, not a full scan
        candidates = gather_reference(
            reference, signature, index, plan.phi, collection, plan.size_range,
            None, get_backend(), None,
        )
    cutoff = plan.theta - EPSILON
    assert (sum(signature.element_bounds) >= cutoff) == (bounds == "loose")
    assert_same_columns(
        got,
        dense_check(candidates, signature.element_bounds, cutoff, check_filter),
    )
    if bounds == "loose" or not check_filter:
        assert len(got[0]) == len(candidates) > 0
    else:
        assert 0 < len(got[0]) < len(candidates)


@pytest.mark.parametrize("kernels", KERNEL_MODES)
@pytest.mark.parametrize("gate", [0, None])
def test_the_overlap_bound_skips_scoring(kernels, gate, monkeypatch):
    """``a b c d`` probes with the one signature token ``a`` and bound 0.6.
    Of the four contents holding ``a``, the 8-token one shares at most 4
    tokens (Jaccard <= 0.5) and ``a`` alone at most 1 (0.25): with the
    size gate at 0 neither is scored, while ``a b c d`` (1.0) and the
    6-token one (up to 4 / 6) are.  Four contents are below the default
    gate, so there all four are scored.  The witnesses equal the
    oracle's either way."""
    collection = SetCollection.from_strings(
        [["a b c d"], ["a x y z w v"], ["a p q r s t u v"], ["a b c d", "a"]]
    )
    index = InvertedIndex(collection)
    phi = SimilarityFunction(SimilarityKind.JACCARD, 0.0)
    reference = collection.query_set(["a b c d"])
    a = frozenset({collection.vocabulary.id_of("a")})
    signature = Signature(a, (a,), (0.6,), "by-hand")
    scored = []
    score = ComputeBackend.indexed_token_similarities

    def counting(self, probe, elements, keys, phi):
        scored.append(len(keys))
        return score(self, probe, elements, keys, phi)

    monkeypatch.setattr(ComputeBackend, "indexed_token_similarities", counting)
    if gate is not None:
        monkeypatch.setattr(check, "_BOUND_MIN_CONTENTS", gate)
    with kernel_mode(kernels):
        stats = PassStats()
        surfaced, (set_ids, _, best) = check._gather_packed(
            reference, signature, index, phi, collection, None, None,
            get_backend(), None, stats, None,
        )
    assert stats.select_distinct_pairs == 4
    assert scored == ([2] if gate == 0 else [4])
    assert surfaced == [0, 1, 2, 3]
    assert set_ids == [0, 3] and best == [{0: 1.0}, {0: 1.0}]
    candidates = gather_reference(
        reference, signature, index, phi, collection, None, None,
        get_backend(), None,
    )
    assert set_ids == [s for s in sorted(candidates) if candidates[s].best]


@pytest.mark.parametrize("kernels", KERNEL_MODES)
def test_a_signature_token_outside_the_element_turns_the_bound_off(
    kernels, monkeypatch
):
    """``l_0 = {a, x}`` for ``r_0 = a b``: x is not r_0's, so c_sig + |r_0|
    - k_0 = 1 would cap ``a b c`` at Jaccard 0.25 though it scores 2 / 3.
    Such a hand-built signature gets no bound: the witness stays."""
    collection = SetCollection.from_strings([["a b c"], ["a x"]])
    index = InvertedIndex(collection)
    phi = SimilarityFunction(SimilarityKind.JACCARD, 0.0)
    reference = collection.query_set(["a b"])
    vocabulary = collection.vocabulary
    tokens = frozenset({vocabulary.id_of("a"), vocabulary.id_of("x")})
    signature = Signature(tokens, (tokens,), (0.5,), "by-hand")
    monkeypatch.setattr(check, "_BOUND_MIN_CONTENTS", 0)
    with kernel_mode(kernels):
        surfaced, (set_ids, _, best) = check._gather_packed(
            reference, signature, index, phi, collection, None, None,
            get_backend(), None, None, None,
        )
    assert surfaced == [0, 1]
    assert set_ids == [0] and best == [{0: 2 / 3}]
    candidates = gather_reference(
        reference, signature, index, phi, collection, None, None,
        get_backend(), None,
    )
    assert best == [candidates[0].best]
