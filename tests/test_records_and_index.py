"""Unit tests for the data model and the inverted index."""

import random

import pytest

from repro.core.config import SilkMothConfig
from repro.core.records import SetCollection
from repro.index.inverted import InvertedIndex, pack_posting
from repro.service import SilkMothService
from repro.sim.functions import SimilarityKind
from strategies.checks import (
    assert_content_table_consistent,
    assert_forward_column_consistent,
    assert_index_pickles,
)


@pytest.fixture
def jaccard_collection():
    return SetCollection.from_strings(
        [
            ["a b c", "c d"],
            ["b c", "e f g"],
            ["a", "h"],
        ]
    )


class TestSetCollection:
    def test_lengths(self, jaccard_collection):
        assert len(jaccard_collection) == 3
        assert len(jaccard_collection[0]) == 2

    def test_set_ids_match_positions(self, jaccard_collection):
        for i, record in enumerate(jaccard_collection):
            assert record.set_id == i

    def test_element_length_is_distinct_word_count(self):
        collection = SetCollection.from_strings([["a b a"]])
        assert collection[0].elements[0].length == 2

    def test_edit_element_length_is_string_length(self):
        collection = SetCollection.from_strings(
            [["abc"]], kind=SimilarityKind.EDS, q=2
        )
        assert collection[0].elements[0].length == 3

    def test_edit_signature_tokens_subset_of_index_tokens(self):
        collection = SetCollection.from_strings(
            [["silkmoth", "related sets"]], kind=SimilarityKind.EDS, q=3
        )
        for element in collection[0].elements:
            assert element.signature_tokens <= element.index_tokens

    def test_token_universe(self, jaccard_collection):
        vocab = jaccard_collection.vocabulary
        universe = jaccard_collection[0].token_universe
        assert {vocab.token_of(t) for t in universe} == {"a", "b", "c", "d"}

    def test_sibling_shares_vocabulary(self, jaccard_collection):
        sibling = jaccard_collection.sibling()
        sibling.add_set(["a b", "z"])
        # "a" resolves to the same id; "z" gets a fresh one.
        assert sibling.vocabulary is jaccard_collection.vocabulary
        a_id = jaccard_collection.vocabulary.id_of("a")
        assert a_id in sibling[0].elements[0].index_tokens

    def test_empty_element(self):
        collection = SetCollection.from_strings([[""]])
        assert collection[0].elements[0].length == 0
        assert collection[0].elements[0].index_tokens == frozenset()


class TestInvertedIndex:
    def test_postings_sorted_by_set(self, jaccard_collection):
        index = InvertedIndex(jaccard_collection)
        vocab = jaccard_collection.vocabulary
        postings = index.postings(vocab.id_of("c"))
        assert [p.set_id for p in postings] == sorted(p.set_id for p in postings)

    def test_list_length(self, jaccard_collection):
        index = InvertedIndex(jaccard_collection)
        vocab = jaccard_collection.vocabulary
        # "c" occurs in set0 (two elements) and set1 (one element).
        token = vocab.id_of("c")
        assert index.list_length(token) == 3
        assert index.posting_lists()[token] is index.posting_keys(token)

    def test_unknown_token(self, jaccard_collection):
        index = InvertedIndex(jaccard_collection)
        assert index.postings(10**6) == []
        assert index.list_length(10**6) == 0
        assert 10**6 not in index.posting_lists()

    def test_keys_in_sets(self, jaccard_collection):
        index = InvertedIndex(jaccard_collection)
        vocab = jaccard_collection.vocabulary
        c = vocab.id_of("c")
        in_set0 = [pack_posting(0, 0), pack_posting(0, 1)]
        in_set1 = [pack_posting(1, 0)]
        assert index.keys_in_sets(c, [0]) == in_set0
        assert index.keys_in_sets(c, [1]) == in_set1
        assert index.keys_in_sets(c, [2]) == []
        assert index.keys_in_sets(c, [0, 1, 2]) == in_set0 + in_set1
        assert index.keys_in_sets(c, [1, 1, 2]) == in_set1
        assert index.keys_in_sets(10**6, [0, 1]) == []

    def test_total_postings(self, jaccard_collection):
        index = InvertedIndex(jaccard_collection)
        # set0: a,b,c + c,d -> 5; set1: b,c + e,f,g -> 5; set2: a + h -> 2.
        assert index.total_postings() == 12

    def test_edit_index_contains_padded_grams(self):
        collection = SetCollection.from_strings(
            [["ab"]], kind=SimilarityKind.EDS, q=3
        )
        index = InvertedIndex(collection)
        # "ab" padded to "ab##" (two pad chars) yields grams "ab#", "b##".
        assert index.total_postings() == 2


class TestTombstones:
    def test_remove_keeps_positions(self, jaccard_collection):
        record = jaccard_collection.remove_set(1)
        assert record.set_id == 1
        assert len(jaccard_collection) == 3          # positional length
        assert jaccard_collection.live_count == 2
        assert jaccard_collection.deleted_ids == {1}
        assert not jaccard_collection.is_live(1)
        assert [r.set_id for r in jaccard_collection.iter_live()] == [0, 2]

    def test_remove_out_of_range(self, jaccard_collection):
        with pytest.raises(KeyError, match="out of range"):
            jaccard_collection.remove_set(5)

    def test_remove_twice(self, jaccard_collection):
        jaccard_collection.remove_set(0)
        with pytest.raises(KeyError, match="already removed"):
            jaccard_collection.remove_set(0)

    def test_replace_set_appends_under_new_id(self, jaccard_collection):
        old, record = jaccard_collection.replace_set(0, ["x y"])
        assert old.set_id == 0
        assert record.set_id == 3
        assert not jaccard_collection.is_live(0)
        assert jaccard_collection.is_live(3)
        assert jaccard_collection.live_count == 3


class TestIndexMutability:
    def test_out_of_order_add_record_keeps_postings_sorted(self):
        collection = SetCollection.from_strings([["a b"], ["b c"], ["a c"]])
        index = InvertedIndex(collection)
        # Re-add set 0's record after the others: simulates a caller
        # that indexes records in arbitrary order.
        empty = SetCollection.from_strings([], vocabulary=collection.vocabulary)
        rebuilt = InvertedIndex(empty)
        for set_id in (2, 0, 1):
            rebuilt.add_record(collection[set_id])
        for token in range(len(collection.vocabulary)):
            assert rebuilt.postings(token) == index.postings(token)
            assert rebuilt.postings(token) == sorted(rebuilt.postings(token))

    def test_lazy_removal_then_compact(self, jaccard_collection):
        index = InvertedIndex(jaccard_collection)
        before = index.total_postings()
        record = jaccard_collection.remove_set(0)
        index.note_removed(record)
        assert index.total_postings() == before      # lazy: nothing dropped
        assert index.dead_fraction > 0.0
        removed = index.compact()
        assert removed == 5                          # set0 contributed 5 postings
        assert index.total_postings() == before - 5
        assert index.dead_fraction == 0.0
        assert index.compactions == 1
        deleted = jaccard_collection.deleted_ids
        for token in range(len(jaccard_collection.vocabulary)):
            assert all(p.set_id not in deleted for p in index.postings(token))

    def test_compact_without_tombstones_is_noop(self, jaccard_collection):
        index = InvertedIndex(jaccard_collection)
        assert index.compact() == 0
        assert index.compactions == 0

    def test_empty_element_postings_tracked_and_compacted(self):
        # Empty-after-tokenisation elements live on a dedicated posting
        # list (they share no token with anything) and must participate
        # in dead-posting accounting, or tombstoning sets made of them
        # would never trigger a compaction.
        collection = SetCollection.from_strings([[""], ["a b"], ["", "c"]])
        index = InvertedIndex(collection)
        assert [p.set_id for p in index.empty_postings()] == [0, 2]
        record = collection.remove_set(0)
        index.note_removed(record)
        assert index.dead_fraction > 0.0
        assert index.compact() == 1
        assert [p.set_id for p in index.empty_postings()] == [2]
        assert index.dead_fraction == 0.0

    def test_index_over_tombstoned_collection_accounts_dead(self, jaccard_collection):
        jaccard_collection.remove_set(2)
        index = InvertedIndex(jaccard_collection)
        assert index.dead_fraction > 0.0
        assert index.compact() == 2                  # set2: "a" + "h"


def _live_keys(collection):
    return {
        pack_posting(record.set_id, j)
        for record in collection.iter_live()
        for j in range(len(record))
    }


class TestForwardColumn:
    """Select's second index level lives and dies with the postings.

    An edit-kind index keeps the key -> element forward column; the
    subclass below runs the same four cases over a token-kind index,
    which keeps the content table instead.
    """

    WORDS = ["aa", "bb", "cc", "dd", "ee", "ff", "gg"]
    CONFIG = SilkMothConfig(similarity=SimilarityKind.EDS, delta=0.5, alpha=0.8)

    @staticmethod
    def _assert_consistent(index, collection):
        assert_forward_column_consistent(index, collection)

    @staticmethod
    def _assert_only_live(index, collection):
        assert set(index.posting_elements()) == _live_keys(collection)

    @staticmethod
    def _second_level(index):
        return index.posting_elements()

    def _collection(self, sets, vocabulary=None):
        return SetCollection.from_strings(
            sets,
            kind=self.CONFIG.similarity,
            q=self.CONFIG.effective_q,
            vocabulary=vocabulary,
        )

    def _elements(self, rng):
        # 0 words -> an empty-after-tokenisation element.
        return [
            " ".join(rng.choice(self.WORDS) for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(1, 4))
        ]

    def _mutate(self, service, rng, steps=60):
        """A seeded add / update / remove stream, consistent at every step."""
        for _ in range(steps):
            live = service.live_set_ids()
            op = rng.random()
            if op < 0.4 or len(live) < 3:
                service.add_set(self._elements(rng))
            elif op < 0.7:
                service.update_set(rng.choice(live), self._elements(rng))
            else:
                service.remove_set(rng.choice(live))
            self._assert_consistent(service.index, service.collection)

    @pytest.mark.parametrize("wal", [False, True])
    def test_column_tracks_service_mutations(self, tmp_path, wal):
        rng = random.Random(1503)
        service = SilkMothService(
            self.CONFIG,
            self._collection([self._elements(rng) for _ in range(8)]),
            wal_dir=tmp_path / "log" if wal else False,
            # Low enough that the stream compacts on its own, too.
            compact_dead_fraction=0.3,
        )
        self._mutate(service, rng)
        assert service.stats.compactions > 0
        # One more tombstone, so the explicit compaction has work.
        service.remove_set(service.live_set_ids()[0])
        service.compact()
        self._assert_consistent(service.index, service.collection)
        self._assert_only_live(service.index, service.collection)
        rebuilt = InvertedIndex(service.collection)
        rebuilt.compact()
        assert self._second_level(rebuilt) == self._second_level(service.index)
        # The second level is derived state: the logical-state digest of
        # this seeded stream is the one the parent commit computes.
        fingerprint = service.state_fingerprint()
        assert fingerprint == "5fc7bfabeadcb4ee90367eee98e86b29"
        if wal:
            service.close()
            recovered = SilkMothService.recover(tmp_path / "log", self.CONFIG)
            try:
                assert recovered.state_fingerprint() == fingerprint
                self._assert_consistent(recovered.index, recovered.collection)
                recovered.compact()
                self._assert_only_live(recovered.index, recovered.collection)
            finally:
                recovered.close()

    def test_out_of_order_add_record(self):
        collection = self._collection(
            [["a b", "", "a b"], ["b c"], ["a c", "", "d"], ["b c", "a b"]]
        )
        in_order = InvertedIndex(collection)
        empty = self._collection([], vocabulary=collection.vocabulary)
        shuffled = InvertedIndex(empty)
        for set_id in (2, 0, 3, 1):
            shuffled.add_record(collection[set_id])
            self._assert_consistent(shuffled, collection)
        for token in in_order.tokens():
            assert shuffled.posting_keys(token) == in_order.posting_keys(token)
        assert self._second_level(shuffled) == self._second_level(in_order)

    def test_column_pickles_with_the_index(self):
        collection = self._collection([["a b", ""], ["b c", "a b"]])
        assert_index_pickles(InvertedIndex(collection))


class TestContentTable(TestForwardColumn):
    """The same four cases over a token-kind index and its content table."""

    CONFIG = SilkMothConfig(delta=0.5)

    @staticmethod
    def _assert_consistent(index, collection):
        assert_content_table_consistent(index, collection)

    @staticmethod
    def _assert_only_live(index, collection):
        assert collection.deleted_ids.isdisjoint(
            set().union(*index.content_sets())
        )
        assert all(len(sets) for sets in index.content_sets())

    @staticmethod
    def _second_level(index):
        # Content ids are first-seen order, which differs between an
        # incrementally built and a rebuilt index: compare by content.
        return {
            record.index_tokens: list(sets)
            for record, sets in zip(index.content_records(), index.content_sets())
        }
