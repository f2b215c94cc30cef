"""Index-backed token kernels: identity with the frozenset reference.

``indexed_token_similarities`` (scores per content id, gathered off the
index's content table; one implementation shared by both backends) and
the numpy backend's packed token weight matrix must be bit-identical
to the scalar similarity functions on the same inputs -- including
empty probes, ephemeral (negative) query token ids, and reduction
residual records (which must *not* take the packed fast path because
their set ids alias live records).
"""

import random

import pytest

from repro.backends import get_backend, numpy_available
from repro.core.records import SetCollection
from repro.index.inverted import InvertedIndex
from repro.sim.functions import SimilarityFunction, SimilarityKind

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)


@pytest.fixture(autouse=True)
def force_packed_path():
    """Zero the adaptive dispatch threshold so the packed matrix runs.

    Production dispatch only routes large matrices through the packed
    path (measurement: frozensets win below the threshold); these
    tests are about the packed kernel's exactness, so they force it.
    """
    if not numpy_available():
        yield
        return
    backend = get_backend("numpy")
    saved = backend.packed_min_cells
    backend.packed_min_cells = 0
    try:
        yield
    finally:
        backend.packed_min_cells = saved

TOKEN_KINDS = [
    SimilarityKind.JACCARD,
    SimilarityKind.DICE,
    SimilarityKind.COSINE,
    SimilarityKind.OVERLAP,
]


def _collection(rng, kind):
    words = ["aa", "bb", "cc", "dd", "ee", "ff"]
    sets = []
    for _ in range(12):
        elements = []
        for _ in range(rng.randint(1, 5)):
            count = rng.randint(0, 4)  # 0 -> empty-after-tokenisation
            elements.append(" ".join(rng.choice(words) for _ in range(count)))
        sets.append(elements)
    return SetCollection.from_strings(sets, kind=kind)


@pytest.mark.parametrize("kind", TOKEN_KINDS)
@pytest.mark.parametrize("alpha", [0.0, 0.4])
def test_indexed_similarities_match_python_backend(kind, alpha):
    rng = random.Random(13)
    collection = _collection(rng, kind)
    phi = SimilarityFunction(kind=kind, alpha=alpha)
    python = get_backend("python")
    numpy = get_backend("numpy")
    # One implementation, inherited: the numpy override is gone.
    assert "indexed_token_similarities" not in vars(type(numpy))
    assert "witnesses" not in vars(type(numpy))
    index = InvertedIndex(collection)
    contents = index.content_records()
    # Every distinct non-empty token set of the collection, once.
    assert sorted(map(sorted, (c.index_tokens for c in contents))) == sorted(
        map(sorted, {e.index_tokens for r in collection for e in r if e.index_tokens})
    )
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
        for backend in (python, numpy):
            got = backend.indexed_token_similarities(probe, contents, ids, phi)
            assert got == expected
            assert all(type(score) is float for score in got)
            assert backend.witnesses(got, 0.25) == (
                [k for k, score in enumerate(expected) if score > 0.25],
                [score for score in expected if score > 0.25],
            )
        # A posting array works as the key column too (no list needed).
        some = index.content_ids(next(iter(index.tokens())))
        assert python.indexed_token_similarities(probe, contents, some, phi) == [
            phi.tokens(probe, contents[c].index_tokens) for c in some
        ]


@pytest.mark.parametrize("kind", TOKEN_KINDS)
@pytest.mark.parametrize("alpha", [0.0, 0.4])
def test_weight_matrix_packed_path_matches_python_backend(kind, alpha):
    rng = random.Random(17)
    collection = _collection(rng, kind)
    phi = SimilarityFunction(kind=kind, alpha=alpha)
    python = get_backend("python")
    numpy = get_backend("numpy")
    reference = collection.query_set(["aa bb", "", "cc dd ee", "aa zz"])
    for candidate in collection:
        expected = python.weight_matrix(
            reference, candidate, phi, collection=collection
        )
        got = numpy.weight_matrix(
            reference, candidate, phi, collection=collection
        )
        assert got.shape == (len(reference), len(candidate))
        for i in range(len(reference)):
            for j in range(len(candidate)):
                assert got[i, j] == expected[i][j], (candidate.set_id, i, j)


def test_packed_toggle_falls_back_to_frozenset_kernels():
    # The perf harness's baseline switch: packed off must produce the
    # same numbers through the same entry point.
    rng = random.Random(23)
    collection = _collection(rng, SimilarityKind.JACCARD)
    phi = SimilarityFunction(kind=SimilarityKind.JACCARD)
    numpy = get_backend("numpy")
    reference = collection.query_set(["aa bb", "", "cc dd ee"])
    candidate = collection[1]
    with_packed = numpy.weight_matrix(
        reference, candidate, phi, collection=collection
    )
    numpy.packed_enabled = False
    try:
        without_packed = numpy.weight_matrix(
            reference, candidate, phi, collection=collection
        )
    finally:
        numpy.packed_enabled = True
    assert with_packed.tolist() == without_packed.tolist()


def test_service_compaction_prunes_dead_packed_sets():
    from repro.core.config import SilkMothConfig
    from repro.service import SilkMothService

    service = SilkMothService(
        # No reduction: its residual records never take the packed path.
        SilkMothConfig(delta=0.5, backend="numpy", reduction=False),
        compact_dead_fraction=1.0,
    )
    for _ in range(6):
        service.add_set(["aa bb", "cc dd"])
    service.search(["aa bb"])  # verification packs the live sets
    backend = service.engine.backend
    store = backend._store(service.collection)
    assert 0 in store._sets
    service.remove_set(0)
    assert service.compact() > 0
    assert 0 not in store._sets
    # Live sets keep their packed entries.
    assert any(set_id in store._sets for set_id in range(1, 6))


def test_residual_record_skips_the_packed_path():
    # A record aliasing a live set id but holding different elements
    # (the reduction's residual) must not be served packed arrays.
    from repro.core.records import SetRecord

    rng = random.Random(19)
    collection = _collection(rng, SimilarityKind.JACCARD)
    phi = SimilarityFunction(kind=SimilarityKind.JACCARD)
    numpy = get_backend("numpy")
    full = collection[0]
    residual = SetRecord(set_id=full.set_id, elements=full.elements[:1])
    reference = collection.query_set(["aa bb"])
    got = numpy.weight_matrix(reference, residual, phi, collection=collection)
    assert got.shape == (1, 1)
    expected = phi.tokens(
        reference.elements[0].index_tokens, residual.elements[0].index_tokens
    )
    assert got[0, 0] == expected
