"""Parallel discovery must equal serial discovery, byte for byte."""

import random

import pytest

from repro.core.config import Relatedness, SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.parallel import _chunk, parallel_discover
from repro.core.records import SetCollection
from repro.sim.functions import SimilarityKind


def _random_sets(rng, n_sets, vocab_size=12):
    vocab = [f"w{i}" for i in range(vocab_size)]
    sets = []
    for _ in range(n_sets):
        elements = [
            " ".join(rng.sample(vocab, rng.randint(1, 4)))
            for _ in range(rng.randint(1, 4))
        ]
        sets.append(elements)
    for i in range(0, n_sets - 1, 3):
        sets[i + 1] = list(sets[i])
    return sets


def _serial(sets, config, reference_sets=None):
    collection = SetCollection.from_strings(
        sets, kind=config.similarity, q=config.effective_q
    )
    engine = SilkMoth(collection, config)
    if reference_sets is None:
        return engine.discover()
    references = engine.reference_collection(reference_sets)
    return engine.discover(references)


def _keys(results):
    return [(r.reference_id, r.set_id, round(r.score, 9)) for r in results]


class TestChunking:
    def test_covers_all_ids(self):
        ids = list(range(17))
        chunks = _chunk(ids, 5)
        assert sorted(sum(chunks, [])) == ids
        assert len(chunks) == 5

    def test_more_chunks_than_ids(self):
        chunks = _chunk([0, 1], 10)
        assert chunks == [[0], [1]]

    def test_single_chunk(self):
        assert _chunk([1, 2, 3], 1) == [[1, 2, 3]]


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_self_discovery_similarity(self, processes):
        rng = random.Random(31)
        sets = _random_sets(rng, 24)
        config = SilkMothConfig(metric=Relatedness.SIMILARITY, delta=0.6)
        expected = _serial(sets, config)
        got = parallel_discover(sets, config, processes=processes)
        assert _keys(got) == _keys(expected)

    @pytest.mark.parametrize("processes", [1, 2])
    def test_self_discovery_containment(self, processes):
        rng = random.Random(32)
        sets = _random_sets(rng, 20)
        config = SilkMothConfig(metric=Relatedness.CONTAINMENT, delta=0.7)
        expected = _serial(sets, config)
        got = parallel_discover(sets, config, processes=processes)
        assert _keys(got) == _keys(expected)

    def test_cross_collection_discovery(self):
        rng = random.Random(33)
        sets = _random_sets(rng, 18)
        references = _random_sets(rng, 6)
        config = SilkMothConfig(metric=Relatedness.SIMILARITY, delta=0.5)
        expected = _serial(sets, config, references)
        got = parallel_discover(
            sets, config, reference_sets=references, processes=2
        )
        assert _keys(got) == _keys(expected)

    def test_edit_similarity(self):
        rng = random.Random(34)
        words = ["matching", "signature", "filtering"]
        sets = []
        for _ in range(12):
            sets.append([rng.choice(words) for _ in range(rng.randint(1, 3))])
        config = SilkMothConfig(
            similarity=SimilarityKind.EDS, delta=0.7, alpha=0.8
        )
        expected = _serial(sets, config)
        got = parallel_discover(sets, config, processes=2)
        assert _keys(got) == _keys(expected)

    def test_empty_input(self):
        config = SilkMothConfig(delta=0.7)
        assert parallel_discover([], config, processes=2) == []
