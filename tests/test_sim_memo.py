"""The cross-stage element-pair similarity memo.

Unit tests pin the memo contract (floor semantics identical to
``edit_at_least``, LRU eviction, sizing resolution); the engine and
service tests pin the integration guarantees: hit/miss counters
surface in ``PassStats``/``ServiceStats``, every engine write drops the
cache (exactness under mutation never argues about staleness), and
results stay equal to brute force with caching on -- even with a
capacity small enough to force constant eviction.
"""

import random

import pytest

from repro.baselines.brute_force import brute_force_search
from repro.core.config import SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.service import SilkMothService
from repro.sim.functions import SimilarityFunction, SimilarityKind
from repro.settings import resolve
from repro.sim.memo import SimilarityMemo

SIM_CACHE_ENV_VAR = "SILKMOTH_SIM_CACHE"

_PHI = SimilarityFunction(kind=SimilarityKind.EDS, alpha=0.4)


class TestResolveSize:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv(SIM_CACHE_ENV_VAR, "10")
        assert resolve(SIM_CACHE_ENV_VAR, 7) == 7
        assert resolve(SIM_CACHE_ENV_VAR, 0) == 0

    def test_env_var_consulted(self, monkeypatch):
        monkeypatch.setenv(SIM_CACHE_ENV_VAR, "123")
        assert resolve(SIM_CACHE_ENV_VAR, None) == 123

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(SIM_CACHE_ENV_VAR, raising=False)
        assert resolve(SIM_CACHE_ENV_VAR, None) == 65536

    @pytest.mark.parametrize("raw", ["-1", "lots", "1.5"])
    def test_broken_env_var_raises(self, monkeypatch, raw):
        monkeypatch.setenv(SIM_CACHE_ENV_VAR, raw)
        with pytest.raises(ValueError, match=SIM_CACHE_ENV_VAR):
            resolve(SIM_CACHE_ENV_VAR, None)

    def test_config_knob_validation(self):
        with pytest.raises(ValueError, match="sim_cache_size"):
            SilkMothConfig(sim_cache_size=-1)


class TestSimilarityMemo:
    def test_miss_then_hit(self):
        memo = SimilarityMemo(16)
        first = memo.edit_value(_PHI, "kitten", "sitting")
        second = memo.edit_value(_PHI, "kitten", "sitting")
        assert first == second == _PHI.edit_at_least("kitten", "sitting", 0.0)
        assert (memo.hits, memo.misses) == (1, 1)

    def test_symmetric_key(self):
        memo = SimilarityMemo(16)
        memo.edit_value(_PHI, "abcd", "abce")
        assert memo.edit_value(_PHI, "abce", "abcd") > 0.0
        assert memo.hits == 1

    def test_floor_semantics_match_edit_at_least(self):
        memo = SimilarityMemo(64)
        rng = random.Random(3)
        texts = [
            "".join(rng.choice("abcd") for _ in range(rng.randint(0, 10)))
            for _ in range(30)
        ]
        for phi in (
            _PHI,
            SimilarityFunction(kind=SimilarityKind.NEDS, alpha=0.0),
        ):
            memo.clear()
            for x in texts:
                for y in texts:
                    for floor in (0.0, 0.3, 0.8):
                        assert memo.edit_value(phi, x, y, floor) == pytest.approx(
                            phi.edit_at_least(x, y, floor)
                        )

    def test_lru_eviction_respects_capacity(self):
        memo = SimilarityMemo(2)
        memo.edit_value(_PHI, "aa", "ab")
        memo.edit_value(_PHI, "bb", "bc")
        memo.edit_value(_PHI, "cc", "cd")  # evicts the (aa, ab) pair
        assert len(memo) == 2
        memo.edit_value(_PHI, "aa", "ab")
        assert memo.misses == 4 and memo.hits == 0

    def test_capacity_zero_disables(self):
        memo = SimilarityMemo(0)
        assert not memo.enabled
        value = memo.edit_value(_PHI, "kitten", "sitting", 0.2)
        assert value == _PHI.edit_at_least("kitten", "sitting", 0.2)
        assert len(memo) == 0 and memo.hits == 0 and memo.misses == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            SimilarityMemo(-1)


def _edit_sets():
    rng = random.Random(11)
    base = ["silkmoth paper", "related sets", "maximum matching", "vldb"]
    sets = []
    for _ in range(10):
        elements = []
        for text in base:
            chars = list(text)
            if rng.random() < 0.6:
                chars[rng.randrange(len(chars))] = rng.choice("abcdefgh")
            elements.append("".join(chars))
        sets.append(elements)
    return sets


class TestEngineIntegration:
    def test_pass_stats_expose_hits_and_misses(self):
        config = SilkMothConfig(
            similarity=SimilarityKind.EDS, delta=0.4, alpha=0.5
        )
        collection = SetCollection.from_strings(
            _edit_sets(), kind=config.similarity, q=config.effective_q
        )
        engine = SilkMoth(collection, config)
        engine.discover()
        assert engine.stats.sim_cache_misses > 0
        assert engine.stats.sim_cache_hits > 0
        # A repeated pass over cached pairs must be all hits.
        _, stats = engine.search_with_stats(collection[0], skip_set=0)
        assert stats.sim_cache_misses == 0
        assert stats.sim_cache_hits > 0

    @pytest.mark.parametrize("capacity", [0, 3, 100000])
    def test_exact_under_any_capacity(self, capacity):
        config = SilkMothConfig(
            similarity=SimilarityKind.EDS,
            delta=0.4,
            alpha=0.5,
            sim_cache_size=capacity,
        )
        collection = SetCollection.from_strings(
            _edit_sets(), kind=config.similarity, q=config.effective_q
        )
        engine = SilkMoth(collection, config)
        for reference in collection:
            got = sorted(
                r.set_id
                for r in engine.search(reference, skip_set=reference.set_id)
            )
            expected = sorted(
                r.set_id
                for r in brute_force_search(
                    reference, collection, config, skip_set=reference.set_id
                )
            )
            assert got == expected


def _edit_service(**kwargs):
    config = SilkMothConfig(
        similarity=SimilarityKind.EDS, delta=0.4, alpha=0.5
    )
    service = SilkMothService(config, **kwargs)
    for elements in _edit_sets():
        service.add_set(elements)
    return service


def _brute_ids(service, raw_reference):
    reference = service.collection.query_set(raw_reference)
    return sorted(
        r.set_id
        for r in brute_force_search(reference, service.collection, service.config)
    )


class TestServiceInvalidation:
    """The pair cache must not outlive a write."""

    def test_queries_populate_and_reuse_the_memo(self):
        service = _edit_service()
        reference = ["silkmoth paper", "related sets"]
        service.search(reference)
        assert len(service.engine.memo) > 0
        first_misses = service.stats.sim_cache_misses
        assert first_misses > 0
        # A distinct (uncached at the result layer) reference sharing
        # elements hits the pair memo.
        service.search(["silkmoth paper", "vldb"])
        assert service.stats.sim_cache_hits > 0

    @pytest.mark.parametrize("mutation", ["add", "remove", "update"])
    def test_mutation_drops_the_pair_cache(self, mutation):
        service = _edit_service()
        reference = ["silkmoth paper", "related sets"]
        service.search(reference)
        assert len(service.engine.memo) > 0
        if mutation == "add":
            service.add_set(["entirely new content", "for the cache"])
        elif mutation == "remove":
            service.remove_set(0)
        else:
            service.update_set(1, ["replacement text", "fresh elements"])
        assert len(service.engine.memo) == 0
        # Exactness under mutation: the next answer equals brute force.
        results = sorted(r.set_id for r in service.search(reference))
        assert results == _brute_ids(service, reference)

    @pytest.mark.parametrize("write", ["add", "remove", "compact"])
    def test_every_engine_write_drops_the_pair_cache(self, write):
        """The engine clears its own memo, so a shard driving a bare
        engine gets the same rule as the service."""
        service = _edit_service(compact_dead_fraction=1.0)
        engine = service.engine
        service.search(["silkmoth paper", "related sets"])
        if write == "compact":
            engine.remove_set(0)
            service.search(["silkmoth papers", "related set"])
        assert len(engine.memo) > 0
        if write == "add":
            engine.add_set(["entirely new content", "for the cache"])
        elif write == "remove":
            engine.remove_set(0)
        else:
            assert engine.compact() > 0
        assert len(engine.memo) == 0

    def test_compaction_drops_the_pair_cache(self):
        service = _edit_service(compact_dead_fraction=1.0)
        reference = ["silkmoth paper", "related sets"]
        service.search(reference)
        service.remove_set(0)
        # Repopulate after the removal cleared it: the remove kept the
        # cached answer, so ask a reference no pass has answered yet.
        service.search(["silkmoth papers", "related set"])
        assert len(service.engine.memo) > 0
        assert service.compact() > 0
        assert len(service.engine.memo) == 0
        results = sorted(r.set_id for r in service.search(reference))
        assert results == _brute_ids(service, reference)

    def test_mutation_interleaving_stays_exact(self):
        rng = random.Random(5)
        service = _edit_service()
        references = [
            ["silkmoth paper", "vldb"],
            ["related sets", "maximum matching"],
        ]
        for step in range(12):
            action = rng.randrange(3)
            live = [r.set_id for r in service.collection.iter_live()]
            if action == 0:
                service.add_set(
                    ["txt %d" % step, "maximum matching"]
                )
            elif action == 1 and len(live) > 4:
                service.remove_set(rng.choice(live))
            else:
                service.update_set(
                    rng.choice(live), ["silkmoth papers", "step %d" % step]
                )
            for reference in references:
                got = sorted(r.set_id for r in service.search(reference))
                assert got == _brute_ids(service, reference)
