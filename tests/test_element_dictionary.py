"""One record per distinct element; token select over distinct contents.

Column data repeats its values.  ``SetCollection`` therefore keeps an
element dictionary (text -> the one record all its occurrences share)
and a token-kind ``InvertedIndex`` a *content table* (distinct token
sets, each with the sets it occurs in) that candidate selection probes
in place of the occurrence postings.  Neither may change a result:

* **sharing** -- two elements of a collection are the same object iff
  their texts are equal, positions survive, query references read the
  dictionary without writing it and equal a dictionary-free
  tokenisation field for field;
* **select** -- ``_gather_packed``'s rows equal the per-occurrence
  oracle ``gather_reference`` bit for bit and the funnel counters a
  first-principles count, on duplication-heavy draws
  (``strategies.duplicated_collections``) under floors, self-skips,
  size windows, tombstones before and after ``compact`` and an index
  filled out of order; engine rows equal brute force with the check and
  NN filters on and off, with the numpy kernels on and off;
* **lifecycle** -- the content table's invariants hold after every
  mutation of a service churn that crosses several compactions, through
  snapshot and WAL-recover round trips, pickling, ``parallel_discover``
  workers and inline / process cluster shards.

Each listed mutation of the kernel fails a test here (CHANGES.md, PR 20).
"""

from __future__ import annotations

import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.baselines.brute_force import brute_force_discover, brute_force_search
from repro.cluster import SilkMothCluster
from repro.core.config import Relatedness, SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.parallel import parallel_discover
from repro.core.records import ElementRecord, SetCollection
from repro.filters import check
from repro.index.inverted import InvertedIndex
from repro.service import SilkMothService
from repro.signatures import get_scheme
from repro.signatures.base import Signature
from repro.sim.functions import SimilarityFunction, SimilarityKind
from repro.tokenize.tokenizers import Tokenizer
from strategies import TOKEN_KINDS, duplicated_collections
from strategies.checks import (
    WINDOWS,
    assert_columns_match_the_oracle,
    assert_content_table_consistent,
    assert_index_pickles,
    assert_records_shared,
    select_probe,
)
from strategies.kernels import KERNEL_MODES, kernel_mode

_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: Column-like sets: a few values, repeated within and across sets, two
#: texts with one token set ("ash bay" / "bay ash") and an empty element.
COLUMN_SETS = [
    ["ash bay", "elm", "ash bay", "fir oak"],
    ["bay ash", "elm", "ivy"],
    ["ash bay", "elm", "", "fir oak"],
    ["ivy", "sky yew", "ivy"],
    ["elm", "elm", "ash bay"],
    ["", "sky yew"],
    ["ash bay", "elm", "fir oak", "ivy"],
    ["fir oak", "sky yew", "bay ash"],
]
COLUMN_CONFIG = SilkMothConfig(metric=Relatedness.CONTAINMENT, delta=0.5)


def _plain_tokenisation(collection, texts):
    """*texts* tokenised as ``query_set`` did before there was a dictionary."""
    tokenizer, vocabulary = collection.tokenizer, collection.vocabulary
    ephemeral: dict[str, int] = {}
    records = []
    for text in texts:
        index_tokens = frozenset(
            vocabulary.resolve_all(tokenizer.index_tokens(text), ephemeral)
        )
        if tokenizer.kind.is_token_based:
            signature_tokens, length = index_tokens, len(index_tokens)
        else:
            signature_tokens = frozenset(
                vocabulary.resolve_all(tokenizer.signature_tokens(text), ephemeral)
            )
            length = len(text)
        records.append(ElementRecord(text, index_tokens, signature_tokens, length))
    return tuple(records)


def _result_rows(results):
    return [(r.set_id, r.score, r.relatedness) for r in results]


# ----------------------------------------------------------------------
# Sharing
# ----------------------------------------------------------------------
class TestSharedRecords:
    @_SETTINGS
    @given(data=duplicated_collections())
    def test_same_object_iff_same_text(self, data):
        sets, _ = data
        collection = SetCollection.from_strings(sets)
        assert_records_shared(collection)
        # Positions survive: a set listing a text twice has two elements.
        assert [[e.text for e in record] for record in collection] == sets
        distinct = {text for elements in sets for text in elements}
        assert set(collection._records) == distinct

    def test_a_set_holding_one_content_twice_keeps_both_positions(self):
        # cf. test_service.py::test_fingerprint_keeps_duplicate_elements
        collection = SetCollection.from_strings([["a b", "a b", "b a"], ["a b"]])
        first, second, third = collection[0].elements
        assert first is second and first is collection[1].elements[0]
        # Two texts, one token set: equal contents, distinct records.
        assert third is not first and third.index_tokens == first.index_tokens
        index = InvertedIndex(collection)
        assert index.total_postings() == 8
        assert len(index.content_records()) == 1
        assert list(index.content_sets()[0]) == [0, 1]
        # The matching still sees three elements in set 0.
        engine = SilkMoth(collection, COLUMN_CONFIG)
        reference = collection.query_set(["a b", "b a", "a b"])
        assert _result_rows(engine.search(reference)) == [(0, 3.0, 1.0)]

    def test_token_kind_views_are_one_frozenset(self):
        collection = SetCollection.from_strings([["a b a"]])
        element = collection[0].elements[0]
        assert element.signature_tokens is element.index_tokens
        assert element.length == len(element.index_tokens) == 2

    @_SETTINGS
    @given(
        data=duplicated_collections(),
        kind=st.sampled_from((SimilarityKind.JACCARD, SimilarityKind.EDS)),
    )
    def test_query_set_equals_a_dictionary_free_tokenisation(self, data, kind):
        sets, reference = data
        collection = SetCollection.from_strings(sets, kind=kind, q=2)
        words = len(collection.vocabulary)
        dictionary = dict(collection._records)
        got = collection.query_set(reference)
        # Field for field, ephemeral ids shared across the reference.
        assert got.set_id == -1
        assert got.elements == _plain_tokenisation(collection, reference)
        for element in got.elements:
            known = dictionary.get(element.text)
            assert (element is known) == (known is not None)
        # Nothing grew: not the vocabulary, not the dictionary.
        assert len(collection.vocabulary) == words
        assert collection._records == dictionary
        assert all(collection._records[t] is r for t, r in dictionary.items())

    def test_ephemeral_ids_are_shared_across_one_reference(self):
        collection = SetCollection.from_strings([["ash bay", "elm"]])
        reference = collection.query_set(["ash zzz", "zzz qqq", "ash bay", "zzz"])
        first, second, known, third = reference.elements
        (unseen,) = first.index_tokens & second.index_tokens
        assert unseen < 0 and third.index_tokens == {unseen}
        assert known is collection[0].elements[0]
        # The next reference starts its own ephemeral numbering.
        again = collection.query_set(["qqq"])
        assert again.elements[0].index_tokens == {-1}

    def test_sibling_starts_an_empty_dictionary(self):
        collection = SetCollection.from_strings([["ash bay", "elm"]])
        sibling = collection.sibling()
        assert sibling._records == {} and sibling.vocabulary is collection.vocabulary
        twin = sibling.add_set(["ash bay"]).elements[0]
        assert twin == collection[0].elements[0]
        assert twin is not collection[0].elements[0]
        assert "ash bay" in sibling._records and len(collection._records) == 2

    def test_known_texts_are_never_tokenised_again(self):
        calls = []

        class Counting(Tokenizer):
            def index_tokens(self, element):
                calls.append(element)
                return super().index_tokens(element)

        collection = SetCollection(Counting(SimilarityKind.JACCARD))
        collection.add_set(["ash bay", "elm", "ash bay"])
        assert calls == ["ash bay", "elm"]
        del calls[:]
        # All known: no tokeniser call at all.
        collection.add_set(["elm", "ash bay"])
        collection.query_set(["ash bay", "elm", "elm"])
        assert calls == []
        # None known: one call per occurrence (a query stores nothing).
        collection.query_set(["fir", "fir oak", "fir"])
        assert calls == ["fir", "fir oak", "fir"]
        del calls[:]
        collection.query_set(["elm", "fir"])
        assert calls == ["fir"]

    def test_duplicate_texts_inside_one_add_set(self):
        service = SilkMothService(COLUMN_CONFIG, wal_dir=False)
        record = service.add_set(["ash bay", "ash bay", "elm", "ash bay"])
        assert len(record) == 4 and len({id(e) for e in record.elements}) == 2
        assert_content_table_consistent(service.index, service.collection)
        assert [list(s) for s in service.index.content_sets()] == [[0], [0]]
        assert _result_rows(service.search(["ash bay", "ash bay"])) == [
            (0, 2.0, 1.0)
        ]

    def test_a_known_text_whose_every_set_is_tombstoned(self):
        service = SilkMothService(
            COLUMN_CONFIG,
            SetCollection.from_strings([["ash bay", "elm"], ["ivy"], ["ash bay"]]),
            wal_dir=False,
            compact_dead_fraction=1.0,
        )
        stored = service.collection[0].elements[0]
        service.remove_set(0)
        service.remove_set(2)
        # Still a valid record, still shared -- and it surfaces nothing,
        # before the compaction (dead occurrences gated) and after it
        # (the content is gone).
        for compacted in (False, True):
            reference = service.collection.query_set(["ash bay"])
            assert reference.elements[0] is stored
            assert service.search(["ash bay"]) == []
            assert service.engine.stats.per_pass[-1].initial_candidates == 0
            if not compacted:
                assert service.compact() > 0
        assert [r.text for r in service.index.content_records()] == ["ivy"]
        # Re-adding the text revives the content under the same record.
        again = service.add_set(["ash bay"])
        assert again.elements[0] is stored
        assert _result_rows(service.search(["ash bay"])) == [(again.set_id, 1.0, 1.0)]

    def test_replace_set_re_adding_the_text_it_just_tombstoned(self):
        service = SilkMothService(
            COLUMN_CONFIG,
            SetCollection.from_strings([["ash bay", "elm"], ["ivy"]]),
            wal_dir=False,
            compact_dead_fraction=1.0,
        )
        old = service.collection[0]
        new = service.update_set(0, ["ash bay", "fir"])
        assert new.elements[0] is old.elements[0]
        assert_content_table_consistent(service.index, service.collection)
        ash = service.index.content_records().index(old.elements[0])
        # Lazy: the dead occurrence stays listed until the compaction.
        assert list(service.index.content_sets()[ash]) == [0, new.set_id]
        assert _result_rows(service.search(["ash bay"])) == [(new.set_id, 1.0, 1.0)]
        service.compact()
        assert_content_table_consistent(service.index, service.collection)
        assert {
            r.text: list(s)
            for r, s in zip(
                service.index.content_records(), service.index.content_sets()
            )
        } == {"ash bay": [2], "ivy": [1], "fir": [2]}
        assert _result_rows(service.search(["ash bay"])) == [(new.set_id, 1.0, 1.0)]

    @pytest.mark.parametrize("kind", [SimilarityKind.JACCARD, SimilarityKind.EDS])
    def test_an_unpickled_collection_keeps_sharing(self, kind):
        collection = SetCollection.from_strings(COLUMN_SETS, kind=kind, q=2)
        index = InvertedIndex(collection)
        assert_index_pickles(index)
        copy = pickle.loads(pickle.dumps(collection))
        assert_records_shared(copy)
        distinct = {text for elements in COLUMN_SETS for text in elements}
        assert set(copy._records) == distinct
        # The dictionary came along: a known text is still not re-made.
        assert copy.add_set(["ash bay"]).elements[0] is copy[0].elements[0]
        assert copy.query_set(["elm"]).elements[0] is copy[0].elements[1]


# ----------------------------------------------------------------------
# Select: columns against the per-occurrence oracle
# ----------------------------------------------------------------------
class TestContentSelect:
    @pytest.mark.parametrize("kernels", KERNEL_MODES)
    @_SETTINGS
    @given(
        data=duplicated_collections(),
        member=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
        skip_self=st.booleans(),
        kind=st.sampled_from(TOKEN_KINDS),
        alpha=st.sampled_from((0.0, 0.5)),
        delta=st.sampled_from((0.3, 0.7)),
        slack=st.sampled_from((0.0, 0.4)),
        dead=st.frozensets(st.integers(min_value=0, max_value=6), max_size=3),
        compacted=st.booleans(),
        window=st.sampled_from(WINDOWS),
        floor=st.sampled_from((0, 0, 1, 2, 4)),
        shuffle=st.one_of(st.none(), st.integers(min_value=0, max_value=99)),
    )
    def test_columns_match_the_per_occurrence_oracle(
        self, kernels, data, member, skip_self, kind, alpha, delta, slack,
        dead, compacted, window, floor, shuffle,
    ):
        with kernel_mode(kernels):
            sets, reference_elements = data
            collection, index, reference, phi, signature, stored = select_probe(
                sets, reference_elements, member, kind, alpha, delta, slack, dead,
                compacted, shuffle=shuffle,
            )
            skip = reference.set_id if member is not None and skip_self else None
            assert_columns_match_the_oracle(
                reference, signature, index, phi, collection, window, skip,
                get_backend(), (None, None), stored, floor,
            )

    @pytest.mark.parametrize("kernels", KERNEL_MODES)
    def test_the_floor_reads_the_last_occurrence(self, kernels):
        with kernel_mode(kernels):
            # "ash bay" first occurs in set 0, below the floor, and again in
            # set 3 above it: the content must still be scored for set 3.
            collection = SetCollection.from_strings(
                [["ash bay"], ["elm"], ["ivy"], ["ash bay", "elm"]]
            )
            index = InvertedIndex(collection)
            phi = SimilarityFunction(SimilarityKind.JACCARD, 0.0)
            reference = collection[0]
            signature = get_scheme("weighted").generate(reference, 0.5, phi, index)
            surfaced, (set_ids, _, best) = check._gather_packed(
                reference, signature, index, phi, collection, None, 0,
                get_backend(), None, None, None, 2,
            )
            assert surfaced == set_ids == [3] and best == [{0: 1.0}]

    @pytest.mark.parametrize("kernels", KERNEL_MODES)
    def test_gated_sets_leave_no_row_behind(self, kernels):
        with kernel_mode(kernels):
            # Sets 1 (self), 2 (tombstoned), 3 (outside the window) and 0
            # (under the floor) all share the witnessed content with set 4:
            # the witness is expanded to every one of them before the gates
            # run, and only set 4's row may carry it.  Set 3 is reached a
            # second time through the empty-element phase, which gates it
            # again.
            collection = SetCollection.from_strings(
                [["ash bay"], ["ash bay", ""], ["ash bay"],
                 ["ash bay", "", "elm", "ivy"], ["ash bay", ""], ["", "elm"]]
            )
            index = InvertedIndex(collection)
            index.note_removed(collection.remove_set(2))
            phi = SimilarityFunction(SimilarityKind.JACCARD, 0.0)
            reference = collection[1]
            # By hand: the schemes bound an empty element by 1.0, which
            # nothing beats, and the empty phase is what is under test.
            per_element = (frozenset({collection.vocabulary.id_of("ash")}), frozenset())
            signature = Signature(per_element[0], per_element, (0.5, 0.5), "by-hand")
            stats_of = {}
            for window in ((1.0, 2.0), None):
                stats = stats_of[window] = check.PassStats()
                surfaced, (set_ids, gains, best) = check._gather_packed(
                    reference, signature, index, phi, collection, window, 1,
                    get_backend(), None, stats, None, 1,
                )
                assert surfaced == set_ids
                if window is None:
                    assert set_ids == [3, 4, 5]
                    assert best == [{0: 1.0, 1: 1.0}, {0: 1.0, 1: 1.0}, {1: 1.0}]
                else:
                    assert set_ids == [4, 5]
                    assert best == [{0: 1.0, 1: 1.0}, {1: 1.0}]
                    assert gains == [1.0, 0.5]
            # One set dropped by the window in the token probe, one of its
            # keys again in the empty-element phase.
            assert stats_of[(1.0, 2.0)].select_size_gate_drops == 2
            assert stats_of[None].select_size_gate_drops == 0

    @pytest.mark.parametrize("kernels", KERNEL_MODES)
    @_SETTINGS
    @given(
        data=duplicated_collections(min_sets=3, max_sets=8),
        metric=st.sampled_from(tuple(Relatedness)),
        kind=st.sampled_from(TOKEN_KINDS),
        alpha=st.sampled_from((0.0, 0.5)),
        delta=st.sampled_from((0.3, 0.6, 0.9)),
        dead=st.frozensets(st.integers(min_value=0, max_value=7), max_size=3),
        compacted=st.booleans(),
    )
    def test_rows_equal_brute_force_with_filters_on_and_off(
        self, kernels, data, metric, kind, alpha, delta, dead, compacted
    ):
        with kernel_mode(kernels):
            sets, reference_elements = data
            base = SilkMothConfig(
                metric=metric, similarity=kind, alpha=alpha, delta=delta
            )
            answers = []
            for check_filter, nn_filter in (
                (True, True), (True, False), (False, True), (False, False)
            ):
                config = replace(base, check_filter=check_filter, nn_filter=nn_filter)
                collection = SetCollection.from_strings(sets, kind=kind)
                engine = SilkMoth(collection, config)
                for set_id in sorted({d % len(sets) for d in dead}):
                    engine.index.note_removed(collection.remove_set(set_id))
                if compacted:
                    engine.index.compact()
                reference = collection.query_set(reference_elements)
                searched = _result_rows(engine.search(reference))
                expected = brute_force_search(reference, collection, config)
                assert [row[0] for row in searched] == [r.set_id for r in expected]
                assert [row[1] for row in searched] == pytest.approx(
                    [r.score for r in expected]
                )
                discovered = engine.discover()
                assert [(r.reference_id, r.set_id) for r in discovered] == [
                    (r.reference_id, r.set_id)
                    for r in brute_force_discover(collection, config)
                ]
                answers.append(
                    (searched, [(r.reference_id, r.set_id, r.score) for r in discovered])
                )
            # The filters prune; they never change a row.
            assert all(answer == answers[0] for answer in answers)


# ----------------------------------------------------------------------
# Lifecycle: churn, compaction, snapshot, WAL, workers, shards
# ----------------------------------------------------------------------
def _churn_elements(rng):
    pool = ["ash bay", "bay ash", "elm", "fir oak", "ivy", "sky yew", "", "ash"]
    return [rng.choice(pool) for _ in range(rng.randint(1, 5))]


def _assert_service_exact(service, references):
    """Every reference's answer equals brute force over the live sets."""
    collection = service.collection
    for elements in references:
        reference = collection.query_set(elements)
        expected = brute_force_search(reference, collection, service.config)
        got = service.search(elements)
        assert [r.set_id for r in got] == [r.set_id for r in expected]
        assert [r.score for r in got] == pytest.approx([r.score for r in expected])


@pytest.mark.parametrize("kernels", KERNEL_MODES)
@pytest.mark.parametrize("wal", [False, True], ids=["snapshot", "wal"])
def test_service_churn_across_compactions(kernels, wal, tmp_path):
    """add / remove / update through >= 2 compactions, then a round trip."""
    with kernel_mode(kernels):
        config = COLUMN_CONFIG
        rng = random.Random(2003)
        service = SilkMothService(
            config,
            SetCollection.from_strings([_churn_elements(rng) for _ in range(10)]),
            wal_dir=tmp_path / "log" if wal else False,
            compact_dead_fraction=0.2,
            cache_capacity=0,
        )
        references = [_churn_elements(rng) for _ in range(4)] + [["ash bay", "zzz"]]
        for step in range(70):
            live = service.live_set_ids()
            op = rng.random()
            if op < 0.35 or len(live) < 4:
                service.add_set(_churn_elements(rng))
            elif op < 0.7:
                service.update_set(rng.choice(live), _churn_elements(rng))
            else:
                service.remove_set(rng.choice(live))
            assert_content_table_consistent(service.index, service.collection)
            assert_records_shared(service.collection)
            if step % 7 == 0:
                _assert_service_exact(service, references)
        assert service.stats.compactions >= 2
        _assert_service_exact(service, references)
        answers = [_result_rows(service.search(r)) for r in references]
        fingerprint = service.state_fingerprint()
        if wal:
            service.close()
            restored = SilkMothService.recover(tmp_path / "log", config)
        else:
            service.save(tmp_path / "service.json")
            restored = SilkMothService.load(tmp_path / "service.json", config)
        try:
            assert restored.state_fingerprint() == fingerprint
            assert_content_table_consistent(restored.index, restored.collection)
            assert_records_shared(restored.collection)
            assert [_result_rows(restored.search(r)) for r in references] == answers
            restored.update_set(restored.live_set_ids()[0], ["ash bay", "elm", "elm"])
            restored.compact()
            assert_content_table_consistent(restored.index, restored.collection)
            _assert_service_exact(restored, references)
        finally:
            restored.close()


def test_parallel_discover_workers_keep_sharing():
    config = SilkMothConfig(delta=0.5)
    sets = COLUMN_SETS * 3
    serial = SilkMoth(SetCollection.from_strings(sets), config).discover()
    assert parallel_discover(sets, config, processes=2) == serial
    assert [(r.reference_id, r.set_id) for r in serial] == [
        (r.reference_id, r.set_id)
        for r in brute_force_discover(SetCollection.from_strings(sets), config)
    ]


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_cluster_shards_answer_like_the_single_node(transport):
    """Every shard builds its own dictionary and content table."""
    sets = [list(elements) for elements in COLUMN_SETS * 2]
    references = [["ash bay", "elm"], ["ivy", "ivy", "sky yew"], ["bay ash", "zzz"]]

    def single_node(removed=()):
        collection = SetCollection.from_strings(sets)
        engine = SilkMoth(collection, COLUMN_CONFIG)
        for set_id in removed:
            engine.index.note_removed(collection.remove_set(set_id))
        searched = [
            _result_rows(engine.search(collection.query_set(r))) for r in references
        ]
        return searched, [
            (r.reference_id, r.set_id, r.score) for r in engine.discover()
        ]

    def cluster_answers(cluster):
        searched = [_result_rows(cluster.search(r)) for r in references]
        return searched, [
            (r.reference_id, r.set_id, r.score) for r in cluster.discover()
        ]

    with SilkMothCluster.from_sets(
        sets, COLUMN_CONFIG, shards=3, transport=transport
    ) as cluster:
        assert cluster_answers(cluster) == single_node()
        sets.append(["ash bay", "ash bay", "elm"])
        cluster.add_set(sets[-1])
        removed = [0, 5, 9]
        for set_id in removed:
            cluster.remove_set(set_id)
        sets.append(["elm", "fir oak", "bay ash"])
        assert cluster.update_set(2, sets[-1]) == len(sets) - 1
        removed.append(2)
        assert cluster_answers(cluster) == single_node(removed)
        cluster.compact()
        assert cluster_answers(cluster) == single_node(removed)
        if transport == "inline":
            for k in range(cluster.n_shards):
                engine = cluster._replicas.endpoint(k, 0).host.engine
                assert_content_table_consistent(engine.index, engine.collection)
                assert_records_shared(engine.collection)
