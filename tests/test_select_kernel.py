"""The packed select kernel against the reference oracle, bit for bit.

The columnar candidate-selection kernel (:mod:`repro.filters.check`)
must be observationally identical to the original per-posting loop
(``strategies.checks.gather_reference``) on *any* input: same candidate set
ids, same witnessed ``best`` maps -- including dict insertion order,
which downstream float summation observes -- under tombstones, empty
elements, self-match skips and every size-gate shape, with the numpy
kernels on and off.  These suites pin that, plus the packed building
blocks: the posting-merge kernels, the run-level gates, and the
lane-parallel Myers batch scorer.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.backends.select import (
    gate_keys,
    merge_distinct_postings_python,
    merge_sorted_unique,
)
from repro.baselines.brute_force import brute_force_search
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.filters.check import select_and_check
from repro.index.inverted import PACK_SHIFT, InvertedIndex, pack_posting
from repro.sim.functions import SimilarityFunction, SimilarityKind
from repro.sim.memo import SimilarityMemo
from repro.signatures import get_scheme
from strategies import (
    collections,
    edit_configs,
    string_collections,
    string_sets,
    token_configs,
    token_sets,
)
from strategies.checks import gather_reference
from strategies.kernels import KERNEL_MODES, kernel_mode

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _packed_infos(*args, **kwargs):
    # set id, best map AND its insertion order (float summation in
    # ``gain`` observes it).
    return [
        (info.set_id, list(info.best.items()))
        for info in select_and_check(*args, **kwargs)
    ]


def _reference_infos(
    reference, signature, index, phi, theta, collection, apply_check=True,
    size_range=None, skip_set=None, backend=None, memo=None,
):
    """``select_and_check``'s rows, from the per-posting oracle."""
    candidates = gather_reference(
        reference, signature, index, phi, collection, size_range, skip_set,
        backend or get_backend(), memo,
    )
    bounds = signature.element_bounds
    residual = sum(bounds)
    infos = [candidates[set_id] for set_id in sorted(candidates)]
    if apply_check:
        infos = [info for info in infos if residual + info.gain(bounds) >= theta]
    return [(info.set_id, list(info.best.items())) for info in infos]


# ----------------------------------------------------------------------
# Posting-merge kernels
# ----------------------------------------------------------------------
def _runs_strategy():
    """Sorted unique packed-key runs over a small id space."""
    key = st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=5),
    )
    run = st.frozensets(key, max_size=12).map(
        lambda pairs: array(
            "q", sorted(pack_posting(s, e) for s, e in pairs)
        )
    )
    return st.lists(run, min_size=0, max_size=8)


class TestMergeKernels:
    @_SETTINGS
    @given(runs=_runs_strategy())
    def test_merge_equals_set_union(self, runs):
        merged = list(merge_sorted_unique(runs))
        expected = sorted(set().union(*map(set, runs)) if runs else set())
        assert merged == expected

    def test_single_run_shared(self):
        run = array("q", [1, 5, 9])
        assert merge_sorted_unique([run]) is run

    def test_gallop_path(self):
        # One dominant run, tiny rest: exercises the galloping branch.
        dominant = array("q", range(0, 4000, 2))
        rest = array("q", [1, 2, 4001])
        merged = list(merge_sorted_unique([rest, dominant]))
        assert merged == sorted(set(dominant) | set(rest))

    @pytest.mark.parametrize("kernels", KERNEL_MODES)
    @_SETTINGS
    @given(
        runs=_runs_strategy(),
        skip=st.sampled_from((None, 0, 3, 99)),
        dead=st.frozensets(st.integers(min_value=0, max_value=7), max_size=3),
        window=st.sampled_from(
            (None, (0.0, 2.0), (2.0, 99.0), (5.0, 4.0), (-float("inf"), float("inf")))
        ),
    )
    def test_backend_merge_equals_the_python_merge(
        self, kernels, runs, skip, dead, window
    ):
        sizes = array("q", [(i * 7) % 5 for i in range(8)])
        reference = merge_distinct_postings_python(
            runs, skip, frozenset(dead), sizes, window
        )
        with kernel_mode(kernels):
            got = get_backend().merge_distinct_postings(
                runs, skip, frozenset(dead), sizes, window
            )
        assert list(got[0]) == list(reference[0])
        assert got[1:] == reference[1:]

    def test_gate_noop_returns_input(self):
        keys = array("q", [pack_posting(1, 0), pack_posting(2, 1)])
        kept, drops = gate_keys(keys, None, frozenset(), array("q"), None)
        assert kept is keys and drops == 0

    def test_gate_counts_size_drops(self):
        keys = [pack_posting(0, 0), pack_posting(0, 1), pack_posting(1, 0)]
        sizes = array("q", [10, 2])
        kept, drops = gate_keys(keys, None, frozenset(), sizes, (1.0, 5.0))
        assert kept == [pack_posting(1, 0)] and drops == 2


# ----------------------------------------------------------------------
# Packed index storage invariants
# ----------------------------------------------------------------------
class TestPackedIndex:
    def test_posting_keys_sorted_unique(self):
        collection = SetCollection.from_strings([["a b", "b c"], ["b", "a c"]])
        index = InvertedIndex(collection)
        for token in index.tokens():
            keys = list(index.posting_keys(token))
            assert keys == sorted(set(keys))
            # Round-trips through the tuple view.
            assert [
                pack_posting(p.set_id, p.element_index)
                for p in index.postings(token)
            ] == keys

    def test_set_sizes_tracks_additions(self):
        collection = SetCollection.from_strings([["a"], ["b c", "d"]])
        index = InvertedIndex(collection)
        assert list(index.set_sizes()) == [1, 2]

    def test_tombstone_then_compact(self):
        collection = SetCollection.from_strings([["a"], ["a b"], ["b"]])
        index = InvertedIndex(collection)
        record = collection[1]
        collection.remove_set(1)
        index.note_removed(record)
        # Postings survive until compaction (lazy deletes)...
        token = next(iter(record.elements[0].index_tokens))
        assert any(p.set_id == 1 for p in index.postings(token))
        index.compact()
        for tok in index.tokens():
            assert all(p.set_id != 1 for p in index.postings(tok))


# ----------------------------------------------------------------------
# The lane-parallel Myers batch scorer
# ----------------------------------------------------------------------
class TestEditValuesBatch:
    @pytest.mark.parametrize("kernels", KERNEL_MODES)
    @_SETTINGS
    @given(
        kind=st.sampled_from((SimilarityKind.EDS, SimilarityKind.NEDS)),
        alpha=st.sampled_from((0.0, 0.35, 0.6, 0.9)),
        tasks=st.lists(
            st.tuples(
                st.text(alphabet="abAB", max_size=70),
                st.text(alphabet="abABé", max_size=90),
                st.sampled_from((0.0, 0.2, 0.6, 0.95)),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_batch_equals_scalar(self, kernels, kind, alpha, tasks):
        phi = SimilarityFunction(kind, alpha)
        with kernel_mode(kernels):
            got = get_backend().edit_values(phi, tasks)
        expected = [phi.edit_at_least(x, y, floor) for x, y, floor in tasks]
        assert got == expected

    def test_memoized_scalar_default_matches(self):
        phi = SimilarityFunction(SimilarityKind.EDS, 0.5)
        memo = SimilarityMemo(capacity=16)
        tasks = [("abc", "abd", 0.0), ("abc", "abd", 0.0), ("a", "b", 0.6)]
        with kernel_mode("off"):
            values = get_backend().edit_values(phi, tasks, memo=memo)
        assert values == [phi.edit_at_least(x, y, f) for x, y, f in tasks]
        assert memo.hits >= 1  # the repeated task was served by the memo

    @pytest.mark.parametrize("kernels", KERNEL_MODES)
    def test_long_patterns_fall_back(self, kernels):
        phi = SimilarityFunction(SimilarityKind.NEDS, 0.4)
        tasks = [("x" * 200, "x" * 199 + "y", 0.0), ("", "abc", 0.0)]
        with kernel_mode(kernels):
            values = get_backend().edit_values(phi, tasks)
        assert values == [phi.edit_at_least(x, y, f) for x, y, f in tasks]


# ----------------------------------------------------------------------
# select_and_check: packed == reference, directly
# ----------------------------------------------------------------------
def _select_fixture(sets, reference_elements, kind, alpha, theta):
    collection = SetCollection.from_strings(sets, kind=kind)
    reference = collection.sibling().add_set(reference_elements)
    phi = SimilarityFunction(kind, alpha)
    index = InvertedIndex(collection)
    signature = get_scheme("weighted").generate(reference, theta, phi, index)
    return reference, collection, index, phi, signature


@pytest.mark.parametrize("kernels", KERNEL_MODES)
class TestPackedMatchesReference:
    @_SETTINGS
    @given(
        sets=collections(min_sets=2, max_sets=6),
        reference=token_sets(min_elements=1, max_elements=4),
        alpha=st.sampled_from((0.0, 0.35)),
        tombstone=st.booleans(),
        skip=st.sampled_from((None, 0)),
        window=st.sampled_from(
            (None, (-float("inf"), float("inf")), (1.0, 3.0), (4.0, 2.0))
        ),
        apply_check=st.booleans(),
    )
    def test_token_kind_infos_identical(
        self, kernels, sets, reference, alpha, tombstone, skip, window,
        apply_check,
    ):
        fixture = _select_fixture(
            sets, reference, SimilarityKind.JACCARD, alpha, theta=1.1
        )
        reference_record, collection, index, phi, signature = fixture
        # A None signature means the scheme degraded to a full scan;
        # select_and_check is never called on that path.
        assume(signature is not None)
        if tombstone and len(sets) > 1:
            dead = collection.remove_set(len(sets) - 1)
            index.note_removed(dead)
        kwargs = dict(
            apply_check=apply_check,
            size_range=window,
            skip_set=skip,
            backend=get_backend(),
        )
        args = (reference_record, signature, index, phi, 1.1, collection)
        with kernel_mode(kernels):
            assert _packed_infos(*args, **kwargs) == _reference_infos(
                *args, **kwargs
            )

    @_SETTINGS
    @given(
        sets=string_collections(min_sets=2, max_sets=5),
        reference=string_sets(min_elements=1, max_elements=3),
        kind=st.sampled_from((SimilarityKind.EDS, SimilarityKind.NEDS)),
        alpha=st.sampled_from((0.0, 0.35, 0.6)),
        memoized=st.booleans(),
        window=st.sampled_from((None, (1.0, 3.0))),
    )
    def test_edit_kind_infos_identical(
        self, kernels, sets, reference, kind, alpha, memoized, window
    ):
        collection = SetCollection.from_strings(sets, kind=kind, q=2)
        reference_record = collection.sibling().add_set(reference)
        phi = SimilarityFunction(kind, alpha)
        index = InvertedIndex(collection)
        signature = get_scheme("weighted").generate(
            reference_record, 1.1, phi, index
        )
        assume(signature is not None)
        args = (reference_record, signature, index, phi, 1.1, collection)
        results = []
        for infos in (_packed_infos, _reference_infos):
            memo = SimilarityMemo(capacity=64) if memoized else None
            with kernel_mode(kernels):
                results.append(
                    infos(
                        *args,
                        apply_check=False,
                        size_range=window,
                        backend=get_backend(),
                        memo=memo,
                    )
                )
        assert results[0] == results[1]


# ----------------------------------------------------------------------
# Whole-engine equality (the packed probe is invisible end to end)
# ----------------------------------------------------------------------
class TestEngineEquality:
    def _assert_search_is_exact(self, sets, config):
        collection = SetCollection.from_strings(
            sets, kind=config.similarity, q=config.effective_q
        )
        engine = SilkMoth(collection, config)
        for record in collection.iter_live():
            got = engine.search(record, skip_set=record.set_id)
            expected = brute_force_search(
                record, collection, config, skip_set=record.set_id
            )
            assert sorted(r.set_id for r in got) == sorted(
                r.set_id for r in expected
            )
            scores = {r.set_id: r.score for r in expected}
            for result in got:
                assert result.score == pytest.approx(scores[result.set_id], abs=1e-9)

    @pytest.mark.parametrize("kernels", KERNEL_MODES)
    @_SETTINGS
    @given(sets=collections(min_sets=1, max_sets=5), config=token_configs())
    def test_token_kinds(self, kernels, sets, config):
        with kernel_mode(kernels):
            self._assert_search_is_exact(sets, config)

    @pytest.mark.parametrize("kernels", KERNEL_MODES)
    @_SETTINGS
    @given(sets=string_collections(min_sets=1, max_sets=4), config=edit_configs())
    def test_edit_kinds(self, kernels, sets, config):
        with kernel_mode(kernels):
            self._assert_search_is_exact(sets, config)


# ----------------------------------------------------------------------
# Select-funnel accounting
# ----------------------------------------------------------------------
class TestFunnelCounters:
    def test_packed_kernel_reports_funnel(self):
        sets = [["a b", "b c"], ["a", "c d"], ["b c", "d"]]
        collection = SetCollection.from_strings(sets)
        engine = SilkMoth(collection, _default_config())
        record = collection[0]
        _, stats = engine.search_with_stats(record, skip_set=record.set_id)
        assert stats.select_postings_scanned >= stats.select_distinct_pairs > 0
        # The pass folds into the engine's run aggregate unchanged.
        assert (
            engine.stats.select_postings_scanned
            == stats.select_postings_scanned
        )


def _default_config():
    from repro.core.config import SilkMothConfig

    return SilkMothConfig(
        similarity=SimilarityKind.JACCARD, delta=0.5, alpha=0.0
    )
