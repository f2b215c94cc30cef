"""The one compute backend: registry, kernel gates, and life without numpy."""

import os
import random
import subprocess
import sys
import textwrap
from array import array
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import ComputeBackend, available_backends, base, get_backend
from repro.backends.select import merge_distinct_postings_python
from repro.core.config import SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.records import ElementRecord, SetCollection
from repro.core.stats import PassStats
from repro.index.inverted import InvertedIndex, pack_posting
from repro.sim.functions import SimilarityFunction, SimilarityKind
from repro.sim.memo import SimilarityMemo
from strategies import TOKEN_KINDS

SRC = Path(__file__).resolve().parents[1] / "src"


class TestRegistry:
    def test_one_backend(self):
        assert get_backend() is get_backend()
        assert [get_backend(name) for name in available_backends()] == [
            get_backend()
        ]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown compute backend"):
            get_backend("fortran")

    def test_engine_uses_it(self):
        collection = SetCollection.from_strings([["a b"]])
        assert SilkMoth(collection, SilkMothConfig()).backend is get_backend()

    def test_no_backend_knob_left(self):
        assert "backend" not in {f.name for f in fields(SilkMothConfig)}
        assert "backend" not in {f.name for f in fields(PassStats)}
        with pytest.raises(TypeError):
            SilkMothConfig(backend="python")

    def test_kernels_load_exactly_when_numpy_does(self):
        try:
            import numpy  # noqa: F401
        except ImportError:
            assert base.numpy_kernels is None
        else:
            assert base.numpy_kernels is not None


def _token_set_strategy():
    return st.frozensets(st.integers(min_value=0, max_value=9), max_size=6)


@given(
    probe=_token_set_strategy(),
    targets=st.lists(_token_set_strategy(), max_size=8),
    kind=st.sampled_from(
        (
            SimilarityKind.JACCARD,
            SimilarityKind.DICE,
            SimilarityKind.COSINE,
            SimilarityKind.OVERLAP,
        )
    ),
    alpha=st.sampled_from((0.0, 0.3, 0.7)),
)
@settings(max_examples=120, deadline=None)
def test_token_kernels_agree(probe, targets, kind, alpha):
    """The per-target scorer and the indexed (closed-form) one agree."""
    phi = SimilarityFunction(kind=kind, alpha=alpha)
    backend = get_backend()
    table = [
        ElementRecord(text="", signature_tokens=t, index_tokens=t, length=len(t))
        for t in targets
    ]
    expected = [phi.tokens(probe, target) for target in targets]
    assert backend.token_similarities(probe, targets, phi) == expected
    assert (
        backend.indexed_token_similarities(
            probe, table, range(len(targets)), phi
        )
        == expected
    )


def _merge_case(size):
    """Two sorted posting runs scanning *size* keys in all."""
    runs = [
        array("q", [pack_posting(s, 0) for s in range(0, size, 2)]),
        array("q", [pack_posting(s, 1) for s in range(1, size, 2)]),
    ]
    args = (runs, None, frozenset({3}), array("q", range(size)), (2.0, 40.0))
    return (
        "merge_distinct_postings",
        lambda backend: backend.merge_distinct_postings(*args),
        lambda: merge_distinct_postings_python(*args),
    )


def _edit_values_case(size):
    tasks = [(f"ab{i % 7}x", f"ab{i % 5}xy", 0.2 * (i % 4)) for i in range(size)]
    return (
        "edit_values",
        lambda backend: backend.edit_values(EDIT_PHI, tasks),
        lambda: [EDIT_PHI.edit_at_least(x, y, f) for x, y, f in tasks],
    )


def _grid_shape(size):
    """A (patterns, texts) shape of *size* cells: 7 x 9 or 8 x 8."""
    return (7, 9) if size == 63 else (8, 8)


def _edit_grid_case(size):
    rows, columns = _grid_shape(size)
    patterns = [f"moth{i}" * (1 + i % 2) for i in range(rows)]
    texts = [f"mot{j}h" for j in range(columns)]
    return (
        "fill_grid_lanes",
        lambda backend: backend.edit_grid(EDIT_PHI, patterns, texts),
        lambda: [[EDIT_PHI.edit_at_least(x, y, 0.0) for y in texts] for x in patterns],
    )


EDIT_PHI = SimilarityFunction(SimilarityKind.EDS, 0.5)
GATE_CASES = {
    "merge": _merge_case,
    "edit_values": _edit_values_case,
    "edit_grid": _edit_grid_case,
}


@pytest.fixture
def kernel_calls(monkeypatch):
    """Names of the numpy kernels called, in order (numpy required)."""
    if base.numpy_kernels is None:
        pytest.skip("numpy not installed")
    calls = []
    for name in (
        "merge_distinct_postings",
        "edit_values",
        "fill_grid_lanes",
        "nearest_in_sets",
    ):
        kernel = getattr(base.numpy_kernels, name)

        def spy(*args, _kernel=kernel, _name=name, **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(base.numpy_kernels, name, spy)
    return calls


class TestGates:
    """The batch size alone decides the path; both paths agree."""

    def test_default_gates(self):
        assert ComputeBackend.select_min_postings == 64
        assert ComputeBackend.edit_batch_min_tasks == 64
        assert ComputeBackend.nn_group_min_sets == 16

    @pytest.mark.parametrize("kind", TOKEN_KINDS, ids=lambda kind: kind.value)
    @pytest.mark.parametrize("below", [True, False], ids=["below", "at"])
    def test_the_nn_group_gate_picks_the_path(
        self, kernel_calls, monkeypatch, kind, below
    ):
        gate = ComputeBackend.nn_group_min_sets
        rng = random.Random(gate)
        words = ["a b", "b c d", "a", "c e", "d e f", "", "f a b c"]
        collection = SetCollection.from_strings(
            [rng.sample(words, rng.randint(1, 4)) for _ in range(3 * gate)],
            kind=kind,
        )
        index = InvertedIndex(collection)
        phi = SimilarityFunction(kind, 0.3)
        probe = collection.query_set(["a b c"]).elements[0].index_tokens
        set_ids = sorted(rng.sample(range(len(collection)), gate - below))
        got = get_backend().nearest_in_sets(probe, set_ids, index, phi)
        assert kernel_calls == ([] if below else ["nearest_in_sets"])
        monkeypatch.setattr(ComputeBackend, "nn_group_min_sets", sys.maxsize)
        assert got == get_backend().nearest_in_sets(probe, set_ids, index, phi)
        brute = {
            set_id: max(phi.tokens(probe, s.index_tokens) for s in collection[set_id])
            for set_id in set_ids
        }
        assert got == {s: score for s, score in brute.items() if score > 0.0}

    @pytest.mark.parametrize("size", [63, 64], ids=["below", "at"])
    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    def test_the_gate_picks_the_path(self, kernel_calls, case, size):
        kernel, run, scalar = GATE_CASES[case](size)
        got = run(get_backend())
        assert kernel_calls == ([kernel] if size == 64 else [])
        if case == "merge":
            got = (list(got[0]),) + tuple(got[1:])
            expected = scalar()
            assert got == (list(expected[0]),) + tuple(expected[1:])
        else:
            assert got == scalar()

    def test_a_grid_without_a_band_never_reaches_the_lanes(self, kernel_calls):
        phi = SimilarityFunction(SimilarityKind.EDS, 0.0)
        patterns, texts = ["moth"] * 8, [f"mot{j}h" for j in range(8)]
        assert get_backend().edit_grid(phi, patterns, texts) == [
            [phi.edit_at_least(x, y, 0.0) for y in texts] for x in patterns
        ]
        assert kernel_calls == []

    def test_memoised_cells_do_not_count_towards_the_gate(self, kernel_calls):
        patterns = [f"moth{i}" for i in range(8)]
        texts = [f"mot{j}h" for j in range(8)]
        memo = SimilarityMemo(capacity=128)
        memo.store(patterns[0], texts[0], EDIT_PHI.edit_at_least(patterns[0], texts[0], 0.0))
        expected = [[EDIT_PHI.edit_at_least(x, y, 0.0) for y in texts] for x in patterns]
        assert get_backend().edit_grid(EDIT_PHI, patterns, texts, memo) == expected
        assert kernel_calls == []  # 63 unknown cells
        assert get_backend().edit_grid(EDIT_PHI, patterns, texts) == expected
        assert kernel_calls == ["fill_grid_lanes"]  # 64 without the memo


def test_runs_without_numpy():
    """With numpy unimportable, ``import repro`` works and stays exact."""
    script = textwrap.dedent(
        """
        import sys

        class Block:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] in ("numpy", "scipy"):
                    raise ImportError(f"{name} blocked")
                return None

        sys.meta_path.insert(0, Block())

        import repro
        from repro import (
            SetCollection, SilkMoth, SilkMothConfig, SimilarityKind,
            brute_force_discover,
        )
        from repro.backends import base

        assert base.numpy_kernels is None
        assert "numpy" not in sys.modules

        def pairs(rows):
            return sorted((r.reference_id, r.set_id) for r in rows)

        words = ["alpha beta", "beta gamma", "gamma delta", "delta alpha"]
        texts = ["silkmoth paper", "silkmoth papers", "silk moth", "moth"]
        cases = [
            (SilkMothConfig(similarity=SimilarityKind.JACCARD, delta=0.5),
             [[words[(i + j) % 4] for j in range(1 + i % 3)] for i in range(40)]),
            (SilkMothConfig(similarity=SimilarityKind.EDS, delta=0.5, alpha=0.6),
             [[texts[(i + j) % 4] + "x" * (i % 2) for j in range(1 + i % 3)]
              for i in range(40)]),
        ]
        for config, sets in cases:
            collection = SetCollection.from_strings(
                sets, kind=config.similarity, q=config.effective_q
            )
            got = pairs(SilkMoth(collection, config).discover())
            assert got, config
            assert got == pairs(brute_force_discover(collection, config)), config
        print("ok")
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
