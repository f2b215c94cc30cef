"""The online serving layer: mutations, cache, batching, compaction.

The hard guarantee is the acceptance criterion for the whole subsystem:
under any interleaving of add/remove/update with queries, the service's
answers equal brute force over the logically live sets, for both
metrics.  The cache tests pin the other contract: a hit never runs the
pipeline, except one pass over the sets added since when an add may
have extended its answer, so a mutation is never served stale.
"""

import random

import pytest

from repro.baselines.brute_force import brute_force_search
from repro.core.config import Relatedness, SilkMothConfig
from repro.core.results import SearchResult
from repro.core.stats import PER_PASS_WINDOW
from repro.obs.sketch import reset_sketch_registry
from repro.service import LRUQueryCache, SilkMothService, reference_fingerprint


def _random_set(rng, vocab_size=12):
    vocab = [f"w{i}" for i in range(vocab_size)]
    return [
        " ".join(rng.sample(vocab, rng.randint(1, 4)))
        for _ in range(rng.randint(1, 4))
    ]


def _brute_ids(service, raw_reference):
    reference = service.collection.sibling().add_set(raw_reference)
    return sorted(
        r.set_id
        for r in brute_force_search(reference, service.collection, service.config)
    )


def _rows(*set_ids):
    return tuple(SearchResult(set_id, 1.0, 1.0) for set_id in set_ids)


def _service(metric=Relatedness.SIMILARITY, delta=0.5, **kwargs):
    return SilkMothService(
        SilkMothConfig(metric=metric, delta=delta), **kwargs
    )


class TestMutations:
    def test_add_is_immediately_searchable(self):
        service = _service(delta=0.6)
        service.add_set(["a b c"])
        assert [r.set_id for r in service.search(["a b c"])] == [0]

    def test_remove_stops_matching_immediately(self):
        service = _service(delta=0.6)
        service.add_set(["a b c"])
        service.add_set(["a b c"])
        service.remove_set(0)
        assert [r.set_id for r in service.search(["a b c"])] == [1]

    def test_update_moves_to_new_id(self):
        service = _service(delta=0.6)
        service.add_set(["a b c"])
        record = service.update_set(0, ["x y z"])
        assert record.set_id == 1
        assert not service.collection.is_live(0)
        assert service.search(["a b c"]) == []
        assert [r.set_id for r in service.search(["x y z"])] == [1]

    def test_remove_twice_raises(self):
        service = _service()
        service.add_set(["a"])
        service.remove_set(0)
        with pytest.raises(KeyError):
            service.remove_set(0)

    def test_remove_out_of_range_raises(self):
        service = _service()
        with pytest.raises(KeyError):
            service.remove_set(0)

    def test_len_counts_live_sets_only(self):
        service = _service()
        for _ in range(4):
            service.add_set(["a b"])
        service.remove_set(1)
        assert len(service) == 3
        assert service.live_set_ids() == [0, 2, 3]

    @pytest.mark.parametrize(
        "metric", [Relatedness.SIMILARITY, Relatedness.CONTAINMENT]
    )
    def test_interleaved_mutations_stay_exact(self, metric):
        rng = random.Random(17 if metric is Relatedness.SIMILARITY else 18)
        service = _service(metric=metric, compact_dead_fraction=0.3)
        for _ in range(15):
            service.add_set(_random_set(rng))
        queries = 0
        for _ in range(80):
            op = rng.random()
            if op < 0.30:
                service.add_set(_random_set(rng))
            elif op < 0.50 and len(service) > 3:
                service.remove_set(rng.choice(service.live_set_ids()))
            elif op < 0.60 and len(service) > 3:
                service.update_set(
                    rng.choice(service.live_set_ids()), _random_set(rng)
                )
            else:
                reference = _random_set(rng)
                got = sorted(r.set_id for r in service.search(reference))
                assert got == _brute_ids(service, reference)
                queries += 1
        assert queries > 20
        # The churn must actually have exercised the lazy-cleanup path.
        assert service.stats.removes + service.stats.updates > 5

    def test_compaction_triggers_on_threshold_and_preserves_results(self):
        service = _service(delta=0.4, compact_dead_fraction=0.25)
        rng = random.Random(5)
        for _ in range(12):
            service.add_set(_random_set(rng))
        assert service.stats.compactions == 0
        for set_id in range(6):
            service.remove_set(set_id)
        assert service.stats.compactions >= 1
        # Compaction keeps the dead fraction below the trigger threshold.
        assert service.index.dead_fraction < 0.25
        reference = _random_set(rng)
        assert (
            sorted(r.set_id for r in service.search(reference))
            == _brute_ids(service, reference)
        )

    def test_manual_compact_reports_removed_postings(self):
        service = _service(compact_dead_fraction=1.0)  # never auto-compacts
        service.add_set(["a b c"])
        service.add_set(["d e"])
        service.remove_set(0)
        assert service.index.dead_fraction > 0.0
        assert service.compact() == 3
        assert service.index.dead_fraction == 0.0


class TestQueryCache:
    def test_hit_skips_the_pipeline(self):
        service = _service()
        service.add_set(["a b c"])
        service.search(["a b c"])
        passes = service.engine.stats.passes
        again = service.search(["a b c"])
        assert service.engine.stats.passes == passes  # no new PassStats
        assert service.stats.cache_hits == 1
        assert [r.set_id for r in again] == [0]

    def test_element_order_does_not_miss(self):
        service = _service(delta=0.3)
        service.add_set(["a b", "c d"])
        service.search(["a b", "c d"])
        service.search(["c d", "a b"])
        assert service.stats.cache_hits == 1

    def test_an_add_refreshes_the_answer(self):
        service = _service(delta=0.6)
        service.add_set(["a b c"])
        first = service.search(["a b c"])
        assert [r.set_id for r in first] == [0]
        service.add_set(["a b c"])
        passes = service.engine.stats.passes
        second = service.search(["a b c"])
        # A hit on the stale answer, completed by one floored pass.
        assert service.stats.cache_hits == 1
        assert service.stats.cache_refreshes == 1
        assert service.engine.stats.passes == passes + 1
        assert [r.set_id for r in second] == [0, 1]

    def test_a_remove_deletes_its_row_from_the_answer(self):
        service = _service(delta=0.6)
        service.add_set(["a b c"])
        service.add_set(["a b c"])
        assert [r.set_id for r in service.search(["a b c"])] == [0, 1]
        service.remove_set(0)
        passes = service.engine.stats.passes
        assert [r.set_id for r in service.search(["a b c"])] == [1]
        assert service.engine.stats.passes == passes  # a hit, no pass
        assert service.stats.cache_refreshes == 0

    def test_capacity_zero_disables_caching(self):
        service = _service(cache_capacity=0)
        service.add_set(["a b"])
        service.search(["a b"])
        service.search(["a b"])
        assert service.stats.cache_hits == 0
        assert service.engine.stats.passes == 2

    def test_lru_evicts_oldest(self):
        cache = LRUQueryCache(capacity=2)
        cache.put(("a", "c"), _rows(1), None, 5)
        cache.put(("b", "c"), _rows(2), None, 5)
        assert cache.get(("a", "c")).answer == _rows(1)  # refreshes "a"
        cache.put(("c", "c"), _rows(3), None, 5)         # evicts "b"
        assert cache.get(("b", "c")) is None
        assert cache.get(("a", "c")).answer == _rows(1)
        assert cache.evictions == 1

    def test_an_add_the_certificate_cannot_rule_out_marks_the_entry_stale(self):
        cache = LRUQueryCache(capacity=4)
        cache.put(("a", "c"), _rows(3), frozenset({7, 9}), 5)
        assert cache.added({1, 2}) == 0
        assert not cache.get(("a", "c")).stale
        assert cache.added({2, 9}) == 0  # kept, not dropped
        entry = cache.get(("a", "c"))
        assert entry.stale and entry.answer == _rows(3)
        assert entry.watermark == 5  # what the refresh is floored at

    def test_fingerprint_keeps_duplicate_elements(self):
        assert reference_fingerprint(["a", "a"]) != reference_fingerprint(["a"])
        assert reference_fingerprint(["b", "a"]) == reference_fingerprint(["a", "b"])

    def test_queries_do_not_grow_the_vocabulary(self):
        service = _service(delta=0.5)
        service.add_set(["a b c"])
        before = len(service.collection.vocabulary)
        assert service.search(["zz yy unseen tokens", "a b"]) is not None
        assert len(service.collection.vocabulary) == before

    def test_unseen_query_tokens_still_match_correctly(self):
        service = _service(delta=0.5)
        service.add_set(["a b c d"])
        # Half the reference tokens are unseen: jaccard must still count
        # only the real overlap, exactly as brute force does.
        reference = ["a b zz qq"]
        got = sorted(r.set_id for r in service.search(reference))
        assert got == _brute_ids(service, reference)


class TestBatchAPI:
    def _seeded_service(self):
        service = _service(delta=0.4)
        rng = random.Random(9)
        for _ in range(10):
            service.add_set(_random_set(rng))
        return service, rng

    def test_results_align_with_input_order(self):
        service, rng = self._seeded_service()
        references = [_random_set(rng) for _ in range(6)]
        batch = service.search_many(references)
        for reference, results in zip(references, batch):
            assert sorted(r.set_id for r in results) == _brute_ids(
                service, reference
            )

    def test_duplicates_computed_once(self):
        service, _ = self._seeded_service()
        passes_before = service.engine.stats.passes
        batch = service.search_many([["a b"], ["a b"], ["a b"]])
        assert service.engine.stats.passes == passes_before + 1
        assert service.stats.batch_queries_deduplicated == 2
        assert batch[0] == batch[1] == batch[2]

    def test_cached_entries_served_without_pipeline(self):
        service, rng = self._seeded_service()
        reference = _random_set(rng)
        service.search(reference)
        passes = service.engine.stats.passes
        batch = service.search_many([reference, _random_set(rng)])
        assert service.engine.stats.passes == passes + 1  # only the cold one
        assert sorted(r.set_id for r in batch[0]) == _brute_ids(service, reference)

    def test_cached_batch_matches_the_cold_batch(self):
        service, rng = self._seeded_service()
        base = [_random_set(rng) for _ in range(6)]
        references = base + base[:3]  # intra-batch duplicates
        cold = service.search_many(references)
        passes = service.engine.stats.passes
        warm = service.search_many(references)
        assert service.engine.stats.passes == passes  # all hits
        assert service.stats.cache_hits > 0
        assert warm == cold

    def test_parallel_matches_serial_after_mutations(self):
        service, rng = self._seeded_service()
        service.remove_set(2)
        service.update_set(4, _random_set(rng))
        references = [_random_set(rng) for _ in range(5)]
        parallel = service.search_many(references, processes=2)
        fresh = _service(delta=0.4)
        # Rebuild an identical service to answer serially without cache.
        for record in service.collection:
            fresh.add_set([e.text for e in record.elements])
        for set_id in service.collection.deleted_ids:
            fresh.remove_set(set_id)
        serial = fresh.search_many(references)
        assert [
            [(r.set_id, round(r.score, 9)) for r in row] for row in parallel
        ] == [[(r.set_id, round(r.score, 9)) for r in row] for row in serial]
        # The pool's passes are accounted exactly like in-process ones.
        assert service.engine.stats.passes == fresh.engine.stats.passes == 5
        assert set(service.stats.stage_seconds) == set(
            fresh.stats.stage_seconds
        ) != set()

    def test_empty_batch(self):
        service, _ = self._seeded_service()
        assert service.search_many([]) == []


class TestServiceStats:
    def test_counters_and_hit_rate(self):
        sketches = reset_sketch_registry()
        service = _service()
        service.add_set(["a b"])
        service.search(["a b"])
        service.search(["a b"])
        service.remove_set(0)
        stats = service.stats
        assert stats.queries == 2
        assert stats.cache_hits == 1
        assert stats.cache_hit_rate == 0.5
        assert stats.adds == 1 and stats.removes == 1
        assert stats.mutations == 2
        latency = sketches.get("silkmoth_query_latency_quantile")
        assert sum(sketch.count for _, sketch in latency.series()) == 2
        assert stats.mean_query_seconds >= 0.0

    def test_pass_history_is_a_window_over_every_pass(self):
        """A long-lived service keeps the latest passes; totals keep all."""
        service = _service()
        service.add_set(["a b"])
        for i in range(1100):
            service.search([f"a q{i}"])
        stats = service.engine.stats
        assert stats.passes == 1100
        assert len(stats.per_pass) == PER_PASS_WINDOW == 1024

    def test_to_dict_is_json_ready(self):
        import json

        service = _service()
        service.add_set(["a"])
        service.search(["a"])
        payload = json.loads(json.dumps(service.stats.to_dict()))
        assert payload["queries"] == 1
        assert payload["mutations"] == 1
