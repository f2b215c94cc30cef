"""The columnar select against the per-posting oracle, column by column.

:func:`repro.filters.check._gather_packed` emits the candidate batch's
columns directly -- no object per surfaced set.  These suites pin every
column to what the original loop (``_gather_reference``, kept verbatim
in ``src/``) produces for the same probe: ``set_ids``, ``sizes`` and
``gains`` bit for bit, ``best`` including the maps' insertion order
(downstream float summation observes it), plus the three select-funnel
counters against a brute-force count -- for every similarity kind, on
both backends, under self-match skips, tombstones before and after
compaction, every size-window shape, empty and duplicate elements, and
member as well as ``query_set`` references.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.backends import available_backends, get_backend
from repro.baselines.brute_force import brute_force_discover
from repro.core.config import SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.core.stats import PassStats
from repro.filters import check
from repro.index.inverted import PACK_SHIFT, InvertedIndex
from repro.sim.functions import SimilarityFunction, SimilarityKind
from repro.sim.memo import SimilarityMemo
from repro.signatures import get_scheme
from repro.signatures.base import Signature
from strategies import (
    EDIT_KINDS,
    TOKEN_KINDS,
    collections,
    string_collections,
    string_sets,
    token_sets,
)

BACKENDS = [
    pytest.param(
        name,
        marks=()
        if name in available_backends()
        else pytest.mark.skip(reason=f"{name} backend unavailable"),
    )
    for name in ("python", "numpy")
]

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    # Short strings admit a weighted signature only at high thetas.
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

INF = float("inf")
#: None, fully open (normalised away), closed, half-open, empty.
WINDOWS = (None, (-INF, INF), (1.0, 3.0), (2.0, INF), (4.0, 2.0))


@pytest.fixture(autouse=True)
def force_vector_kernels():
    """Run the numpy backend's array kernels on these tiny inputs too.

    Its dispatch thresholds send probes this small down the shared
    pure-Python paths, which the ``python`` parametrisation already
    covers.
    """
    if "numpy" not in available_backends():
        yield
        return
    backend = get_backend("numpy")
    saved = (backend.select_min_postings, backend.edit_batch_min_tasks)
    backend.select_min_postings = backend.edit_batch_min_tasks = 0
    try:
        yield
    finally:
        backend.select_min_postings, backend.edit_batch_min_tasks = saved


def _expected_funnel(signature, index, collection, window, skip, reference):
    """The select-funnel counts, by brute force over the posting lists."""
    if window == (-INF, INF):
        window = None
    deleted = collection.deleted_ids
    probes = [
        [list(index.posting_keys(token)) for token in tokens]
        for tokens in signature.per_element
    ]
    if any(not e.index_tokens for e in reference.elements):
        probes.append([list(index.empty_posting_keys())])
    scanned = distinct = drops = 0
    for runs in probes:
        scanned += sum(map(len, runs))
        merged = set().union(*runs)
        distinct += len(merged)
        for key in merged:
            set_id = key >> PACK_SHIFT
            if set_id == skip or set_id in deleted or window is None:
                continue
            if not window[0] <= len(collection[set_id]) <= window[1]:
                drops += 1
    return scanned, distinct, drops


def _assert_columns_match_the_oracle(
    reference, signature, index, phi, collection, window, skip, backend, memos
):
    packed_memo, oracle_memo = memos
    stats = PassStats()
    set_ids, sizes, gains, best = check._gather_packed(
        reference, signature, index, phi, collection, window, skip,
        backend, packed_memo, stats, None,
    )
    candidates = check._gather_reference(
        reference, signature, index, phi, collection, window, skip,
        backend, oracle_memo,
    )
    bounds = signature.element_bounds
    assert set_ids == sorted(candidates)
    assert sizes == [len(collection[set_id]) for set_id in set_ids]
    # Bit for bit: == on floats, no tolerance.
    assert gains == [candidates[set_id].gain(bounds) for set_id in set_ids]
    assert [list(witnessed.items()) for witnessed in best] == [
        list(candidates[set_id].best.items()) for set_id in set_ids
    ]
    assert all(type(score) is float for w in best for score in w.values())
    # The NN filter fills the maps in place: no two rows may share one.
    assert len({id(witnessed) for witnessed in best}) == len(best)
    assert (
        stats.select_postings_scanned,
        stats.select_distinct_pairs,
        stats.select_size_gate_drops,
    ) == _expected_funnel(signature, index, collection, window, skip, reference)


def _probe(
    sets, reference_elements, member, kind, alpha, delta, slack, dead, compacted, q=1
):
    """Collection, index (tombstoned, maybe compacted), reference, signature.

    *slack* lowers every element bound of the generated signature: the
    kernels' identity does not depend on the bounds being tight, and
    looser ones let more pairs -- and the empty-element phase, whose
    bound the schemes put at 1.0 -- record a witness.
    """
    collection = SetCollection.from_strings(sets, kind=kind, q=q)
    index = InvertedIndex(collection)
    if member is not None:
        member %= len(collection)
        reference = collection[member]
    else:
        # Ephemeral negative ids for unseen tokens, set_id -1.
        reference = collection.query_set(reference_elements)
    for set_id in sorted({d % len(collection) for d in dead} - {member}):
        index.note_removed(collection.remove_set(set_id))
    if compacted:
        index.compact()
    phi = SimilarityFunction(kind, alpha)
    assume(len(reference))
    signature = get_scheme("weighted").generate(
        reference, delta * len(reference), phi, index
    )
    # No signature: the pipeline full-scans and never probes.
    assume(signature is not None)
    signature = replace(
        signature,
        element_bounds=tuple(
            max(0.0, bound - slack) for bound in signature.element_bounds
        ),
    )
    return collection, index, reference, phi, signature


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestColumnsMatchTheOracle:
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
    )
    def test_token_kinds(
        self, backend_name, sets, reference_elements, member, skip_self,
        kind, alpha, delta, slack, dead, compacted, window,
    ):
        collection, index, reference, phi, signature = _probe(
            sets, reference_elements, member, kind, alpha, delta, slack, dead,
            compacted,
        )
        skip = reference.set_id if member is not None and skip_self else None
        _assert_columns_match_the_oracle(
            reference, signature, index, phi, collection, window, skip,
            get_backend(backend_name), (None, None),
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
    )
    def test_edit_kinds(
        self, backend_name, sets, reference_elements, member, kind, alpha,
        delta, slack, q, memoized, dead, compacted, window,
    ):
        collection, index, reference, phi, signature = _probe(
            sets, reference_elements, member, kind, alpha, delta, slack, dead,
            compacted, q,
        )
        memos = (
            (SimilarityMemo(capacity=64), SimilarityMemo(capacity=64))
            if memoized
            else (None, None)
        )
        _assert_columns_match_the_oracle(
            reference, signature, index, phi, collection, window,
            reference.set_id if member is not None else None,
            get_backend(backend_name), memos,
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
    for name in available_backends():
        set_ids, sizes, gains, best = check._gather_packed(
            reference, signature, index, phi, collection, None, 0,
            get_backend(name), None, None, None,
        )
        # Set 3 shares a token but stays under the bound: surfaced, no witness.
        assert set_ids == [1, 2, 3] and sizes == [3, 2, 1]
        assert [list(w.items()) for w in best] == [
            [(0, 1.0), (2, 1.0), (1, 1.0)], [(1, 1.0)], []
        ]
        assert gains == [((0.0 + (1.0 - 0.3)) + (1.0 - 0.3)) + (1.0 - 0.5), 0.5, 0.0]


def test_engine_python_numpy_and_brute_force_agree():
    if "numpy" not in available_backends():
        pytest.skip("numpy backend unavailable")
    import random

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
    runs = {}
    for name in ("python", "numpy"):
        engine = SilkMoth(
            SetCollection.from_strings(sets), replace(config, backend=name)
        )
        pairs = [(p.reference_id, p.set_id, p.score) for p in engine.discover()]
        runs[name] = (pairs, replace(engine.stats, stage_seconds={}, per_pass=[]))
    assert runs["python"] == runs["numpy"]
    assert runs["python"][1].select_distinct_pairs > 0
    oracle = brute_force_discover(SetCollection.from_strings(sets), config)
    assert [pair[:2] for pair in runs["python"][0]] == [
        (p.reference_id, p.set_id) for p in oracle
    ]
