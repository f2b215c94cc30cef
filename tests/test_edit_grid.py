"""The per-pass edit-similarity grid against the scalar definition, bit for bit.

``ComputeBackend.edit_grid`` is the one way an edit-kind weight matrix
gets built: verification asks for one grid per pass, single-candidate
callers for the grid of one candidate.  Every cell must equal
``phi.edit_at_least(x, y, 0.0)`` exactly, with the numpy kernels on and
off, whatever the memo holds and whichever path (scalar calls or Myers
lanes) computed it.  The classes below follow the boundary and encoding bug
classes that vectorised kernels invite: the one-word pattern limit,
empty strings, non-ASCII text on either side, NUL (the lane buffer's
padding byte), duplicates, and cache state changing mid-batch.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import base, get_backend
from repro.baselines.brute_force import brute_force_search
from repro.core.config import SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.matching import score
from repro.matching.score import edit_weight_matrices, matching_score
from repro.sim.functions import SimilarityFunction, SimilarityKind
from repro.sim.memo import SimilarityMemo
from strategies import EDIT_KINDS, clustered_edit_sets, edit_grid_strings
from strategies.kernels import KERNEL_MODES, kernel_mode

needs_kernels = pytest.mark.skipif(
    base.numpy_kernels is None, reason="numpy not installed"
)

ALPHAS = (0.0, 0.2, 0.6, 0.8, 1.0)
FLOORS = (0.0, 0.3, 0.7, 1.0)

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _entries(backend, matrix, rows: int, cols: int) -> list[list[float]]:
    """A weight matrix (backend-opaque sparse rows) as dense lists."""
    return [
        [backend.matrix_entry(matrix, i, j) for j in range(cols)]
        for i in range(rows)
    ]


def _scalar(phi, patterns, texts) -> list[list[float]]:
    return [[phi.edit_at_least(x, y, 0.0) for y in texts] for x in patterns]


_MEMOS = {
    "none": lambda: None,
    "off": lambda: SimilarityMemo(0),
    "on": lambda: SimilarityMemo(4096),
    "evicting": lambda: SimilarityMemo(1),
}


@pytest.fixture(params=KERNEL_MODES)
def kernels(request):
    """The suite's axis: every batch in lanes, or none."""
    with kernel_mode(request.param):
        yield request.param


class TestGridEqualsScalar:
    @pytest.mark.parametrize("mode", KERNEL_MODES)
    @_SETTINGS
    @given(
        strings=edit_grid_strings(),
        kind=st.sampled_from(EDIT_KINDS),
        alpha=st.sampled_from(ALPHAS),
        memo_state=st.sampled_from(sorted(_MEMOS)),
    )
    def test_every_cell(self, mode, strings, kind, alpha, memo_state):
        patterns, texts = strings
        phi = SimilarityFunction(kind, alpha)
        memo = _MEMOS[memo_state]()
        expected = _scalar(phi, patterns, texts)
        with kernel_mode(mode):
            for _ in range(2):  # the second grid is served by what was stored
                grid = get_backend().edit_grid(phi, patterns, texts, memo)
                assert grid == expected
        if memo_state == "evicting":
            assert len(memo) <= 1

    @pytest.mark.parametrize("kind", EDIT_KINDS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("length", (0, 1, 63, 64, 65))
    def test_pattern_length_boundaries(self, kernels, kind, alpha, length):
        phi = SimilarityFunction(kind, alpha)
        pattern = ("ab" * 33)[:length]
        texts = [
            pattern,
            pattern + "b",
            pattern[1:],
            "b" + pattern[1:],
            pattern[: length // 2] + "é" + pattern[length // 2 :],
            pattern[: length // 2] + "\0" + pattern[length // 2 :],
            "\0" * length,
            "",
            pattern,  # duplicate text (two candidates sharing an element)
        ]
        patterns = [pattern, pattern + "\0", "é" + pattern]
        grid = get_backend().edit_grid(phi, patterns, texts)
        assert grid == _scalar(phi, patterns, texts)

    def test_empty_sides(self, kernels):
        phi = SimilarityFunction(SimilarityKind.EDS, 0.6)
        backend = get_backend()
        assert backend.edit_grid(phi, [], ["a"]) == []
        assert backend.edit_grid(phi, ["a", "b"], []) == [[], []]
        assert backend.grid_columns([]) == []
        assert backend.grid_columns([[], []]) == []

    def test_weight_matrix_is_the_single_candidate_grid(self, kernels):
        phi = SimilarityFunction(SimilarityKind.NEDS, 0.5)
        backend = get_backend()
        collection = SetCollection.from_strings(
            [["kitten", "mitten", ""], ["sitting", "kitten", "fitting", "é"]],
            kind=SimilarityKind.NEDS,
        )
        reference, candidate = collection[0], collection[1]
        matrix = backend.weight_matrix(reference, candidate, phi)
        texts = [element.text for element in candidate.elements]
        patterns = [element.text for element in reference.elements]
        expected = _scalar(phi, patterns, texts)
        assert _entries(backend, matrix, 3, 4) == expected


class TestGridAndMemo:
    def test_grid_leaves_the_memo_as_per_pair_calls_would(self, kernels):
        phi = SimilarityFunction(SimilarityKind.EDS, 0.5)
        patterns = ["kitten", "sitting", "mitten"]
        texts = ["kitten", "bitten", "sitting", "fitting", "x" * 70, "né"]
        memo = SimilarityMemo(4096)
        get_backend().edit_grid(phi, patterns, texts, memo)
        reference = SimilarityMemo(4096)
        for x in patterns:
            for y in texts:
                reference.edit_value(phi, x, y)
        assert len(memo) == len(reference)
        misses = memo.misses
        for x in patterns:
            for y in texts:
                for floor in FLOORS:
                    assert memo.edit_value(phi, x, y, floor) == phi.edit_at_least(
                        x, y, floor
                    )
        assert memo.misses == misses  # every pair was stored

    def test_second_pass_is_all_hits(self, kernels):
        phi = SimilarityFunction(SimilarityKind.EDS, 0.5)
        patterns = ["kitten", "sitting"]
        texts = [f"kitte{c}" for c in "abcdefgh"] * 5
        backend = get_backend()
        memo = SimilarityMemo(4096)
        first = backend.edit_grid(phi, patterns, texts, memo)
        hits, misses = memo.hits, memo.misses
        second = backend.edit_grid(phi, patterns, texts, memo)
        assert memo.misses == misses
        assert memo.hits == hits + len(patterns) * len(texts)
        assert first == second


class TestLookupAndStore:
    def test_lookup_never_computes(self):
        memo = SimilarityMemo(8)
        assert memo.lookup("kitten", ["sitting", "mitten"]) == [None, None]
        assert len(memo) == 0 and (memo.hits, memo.misses) == (0, 2)
        memo.store("kitten", "mitten", 0.5)
        assert memo.lookup("kitten", ["sitting", "mitten", "bitten"]) == [
            None,
            0.5,
            None,
        ]
        assert len(memo) == 1 and (memo.hits, memo.misses) == (1, 4)
        assert memo.lookup("kitten", []) == []

    @pytest.mark.parametrize("kind", EDIT_KINDS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_store_then_edit_value_agree_for_every_floor(self, kind, alpha):
        phi = SimilarityFunction(kind, alpha)
        memo = SimilarityMemo(64)
        pairs = [("kitten", "sitting"), ("abc", "abc"), ("", "a"), ("né", "ne")]
        for x, y in pairs:
            memo.store(x, y, phi.edit_at_least(x, y, 0.0))
        for x, y in pairs:
            assert memo.lookup(y, [x]) == [phi.edit_at_least(x, y, 0.0)]  # symmetric
            for floor in FLOORS:
                assert memo.edit_value(phi, x, y, floor) == phi.edit_at_least(
                    x, y, floor
                )
        assert memo.misses == 0

    def test_store_respects_capacity(self):
        memo = SimilarityMemo(2)
        for k in range(5):
            memo.store(f"x{k}", f"y{k}", 0.5)
        assert len(memo) == 2
        assert memo.lookup("x4", ["y4"]) == [0.5]
        assert memo.lookup("x0", ["y0"]) == [None]
        disabled = SimilarityMemo(0)
        disabled.store("a", "b", 1.0)
        assert len(disabled) == 0

    def test_id_table_rebuild_between_lookup_and_store(self):
        memo = SimilarityMemo(1)
        limit = memo._ids_limit
        assert memo.lookup("left", ["right"]) == [None]
        # Flood the interning table until it is rebuilt at least once.
        for k in range(limit + 8):
            memo.store(f"p{k}", f"q{k}", 0.25)
            assert len(memo._ids) <= limit
        memo.store("left", "right", 0.75)
        assert memo.lookup("right", ["left"]) == [0.75]
        phi = SimilarityFunction(SimilarityKind.EDS, 0.0)
        assert memo.edit_value(phi, "left", "right", 0.8) == 0.0


@needs_kernels
class TestDispatch:
    """``edit_batch_min_tasks`` counts the cells the memo does not hold."""

    def _spied(self, monkeypatch):
        calls: list[int] = []
        lanes = base.numpy_kernels.edit_lanes

        def spy(phi, patterns, texts, pi, ti, floors, min_lanes):
            calls.append(len(pi))
            return lanes(phi, patterns, texts, pi, ti, floors, min_lanes)

        monkeypatch.setattr(base.numpy_kernels, "edit_lanes", spy)
        return get_backend(), calls

    def test_unknown_cells_decide(self, monkeypatch):
        backend, calls = self._spied(monkeypatch)
        phi = SimilarityFunction(SimilarityKind.EDS, 0.6)
        patterns = ["kitten", "sitting"]
        texts = [f"kitt{a}{b}" for a in "abcdefgh" for b in "abcdefgh"]
        memo = SimilarityMemo(4096)
        backend.edit_grid(phi, patterns, texts, memo)
        assert calls == [128]  # cold memo: the whole grid in one lane batch
        # One new text: 2 unknown cells of 130 stay on the scalar path.
        backend.edit_grid(phi, patterns, texts + ["kitten"], memo)
        assert calls == [128]
        # Below the threshold nothing is vectorised, memo or not.
        backend.edit_grid(phi, patterns, texts[:10])
        assert calls == [128]

    def test_too_few_lanes_are_left_to_the_scalar_fill(self, monkeypatch):
        # 140 unknown cells are offered to the lanes, but the length gap
        # rejects all but 4 of them: those 4 come back for the scalar path.
        backend, calls = self._spied(monkeypatch)
        phi = SimilarityFunction(SimilarityKind.EDS, 0.8)
        patterns = ["kitten", "mitten"]
        texts = [f"a much longer candidate text {k:02d}" for k in range(68)]
        texts += ["kitten", "bitten"]
        memo = SimilarityMemo(4096)
        grid = backend.edit_grid(phi, patterns, texts, memo)
        assert calls == [140]
        assert grid == _scalar(phi, patterns, texts)
        assert len(memo) == 140  # every pair was stored, by whichever path

    def test_alpha_zero_stays_scalar(self, monkeypatch):
        backend, calls = self._spied(monkeypatch)
        texts = [f"kitt{a}{b}" for a in "abcdefgh" for b in "abcdefgh"]
        backend.edit_grid(SimilarityFunction(SimilarityKind.EDS, 0.0), ["kitten"], texts)
        assert calls == []


class TestPassMatrices:
    @pytest.mark.parametrize("block", (512, 2))
    def test_one_grid_equals_per_candidate_matrices(
        self, monkeypatch, kernels, block
    ):
        monkeypatch.setattr(score, "GRID_CANDIDATES", block)
        phi = SimilarityFunction(SimilarityKind.EDS, 0.6)
        sets = clustered_edit_sets(seed=5, clusters=2, sets_per_cluster=4)
        sets[3] = sets[1] + [""]  # duplicate texts across candidates
        collection = SetCollection.from_strings(sets, kind=SimilarityKind.EDS)
        backend = get_backend()
        reference = collection[0]
        candidates = [collection[k] for k in range(1, len(sets))]
        memo = SimilarityMemo(4096)
        matrices = list(
            edit_weight_matrices(reference, candidates, phi, backend, 1, memo)
        )
        assert len(matrices) == len(candidates)
        for candidate, weights in zip(candidates, matrices):
            assert weights == backend.weight_matrix(reference, candidate, phi)
            assert matching_score(
                reference, candidate, phi, backend=backend, weights=weights
            ) == matching_score(reference, candidate, phi, backend=backend)


def _discover(sets, config):
    collection = SetCollection.from_strings(
        sets, kind=config.similarity, q=config.effective_q
    )
    engine = SilkMoth(collection, config)
    rows = [
        (r.reference_id, r.set_id, r.score, r.relatedness) for r in engine.discover()
    ]
    return collection, engine, rows


_FUNNEL = (
    "initial_candidates",
    "after_check",
    "after_nn",
    "verified",
    "matches",
    "select_postings_scanned",
    "select_distinct_pairs",
    "select_size_gate_drops",
)


@needs_kernels
class TestEngineIdentity:
    """``discover()``: kernels at their gates == kernels off == brute force."""

    @pytest.mark.parametrize(
        "alpha, reduction, lanes",
        [(0.6, True, True), (0.8, False, False), (0.0, True, False)],
        ids=["grid-lanes", "grid-scalar", "reduction-residuals"],
    )
    @pytest.mark.parametrize("kind", EDIT_KINDS)
    def test_clustered_edit_sets(self, monkeypatch, kind, alpha, reduction, lanes):
        grid_batches: list[int] = []
        edit_lanes = base.numpy_kernels.edit_lanes

        def spy(phi, patterns, texts, pi, ti, floors, min_lanes):
            if isinstance(floors, float):  # the grid's single floor
                grid_batches.append(len(pi))
            return edit_lanes(phi, patterns, texts, pi, ti, floors, min_lanes)

        monkeypatch.setattr(base.numpy_kernels, "edit_lanes", spy)
        sets = clustered_edit_sets(seed=9, clusters=4, sets_per_cluster=4)
        config = SilkMothConfig(
            similarity=kind, delta=0.5, alpha=alpha, reduction=reduction
        )
        with kernel_mode("off"):
            _, scalar_engine, scalar_rows = _discover(sets, config)
        assert not grid_batches
        collection, engine, rows = _discover(sets, config)
        assert rows == scalar_rows
        assert rows, "the clustered sets must produce related pairs"
        assert bool(grid_batches) == lanes
        for field in _FUNNEL:
            assert getattr(engine.stats, field) == getattr(
                scalar_engine.stats, field
            ), field
        for mine, other in zip(engine.stats.per_pass, scalar_engine.stats.per_pass):
            assert (mine.verified, mine.matches) == (other.verified, other.matches)
        # Against the oracle: same pairs, same scores.
        expected = []
        for reference in collection.iter_live():
            for result in brute_force_search(
                reference, collection, config, skip_set=reference.set_id
            ):
                if result.set_id > reference.set_id:
                    expected.append(
                        (reference.set_id, result.set_id, result.score, result.relatedness)
                    )
        assert sorted(rows) == sorted(expected)
