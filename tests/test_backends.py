"""Compute-backend selection rules and kernel equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.backends as backends
from repro.backends import (
    BACKEND_ENV_VAR,
    KNOWN_BACKENDS,
    available_backends,
    get_backend,
    numpy_available,
)
from repro.backends.python_backend import PythonBackend
from repro.core.config import SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.sim.functions import SimilarityFunction, SimilarityKind

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)


class TestSelection:
    def test_explicit_python(self):
        assert get_backend("python").name == "python"

    def test_python_always_available(self):
        assert "python" in available_backends()

    def test_instances_cached(self):
        assert get_backend("python") is get_backend("python")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown compute backend"):
            get_backend("fortran")

    def test_env_var_forces_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert get_backend().name == "python"

    def test_env_var_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "cuda")
        with pytest.raises(ValueError, match="unknown compute backend"):
            get_backend()

    def test_explicit_name_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert get_backend("python").name == "python"

    @needs_numpy
    def test_auto_prefers_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert get_backend().name == "numpy"

    def test_auto_falls_back_without_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        monkeypatch.setattr(backends, "numpy_available", lambda: False)
        assert get_backend().name == "python"

    def test_missing_numpy_explicit_request_raises(self, monkeypatch):
        def fail_load(name):
            raise RuntimeError("the numpy compute backend was requested")

        monkeypatch.setattr(backends, "_load", fail_load)
        monkeypatch.setitem(backends._INSTANCES, "numpy", None)
        backends._INSTANCES.pop("numpy")
        with pytest.raises(RuntimeError, match="numpy compute backend"):
            get_backend("numpy")

    def test_config_validates_backend_name(self):
        with pytest.raises(ValueError, match="backend"):
            SilkMothConfig(backend="gpu")

    def test_engine_uses_config_backend(self):
        collection = SetCollection.from_strings([["a b"]])
        engine = SilkMoth(collection, SilkMothConfig(backend="python"))
        assert engine.backend.name == "python"

    def test_pass_stats_record_backend(self):
        collection = SetCollection.from_strings([["a b"], ["a b"]])
        engine = SilkMoth(collection, SilkMothConfig(backend="python"))
        _, stats = engine.search_with_stats(collection[0], skip_set=0)
        assert stats.backend == "python"


def _token_set_strategy():
    return st.frozensets(st.integers(min_value=0, max_value=9), max_size=6)


@needs_numpy
class TestKernelEquivalence:
    """The numpy backend must be an exact drop-in for the Python one."""

    def setup_method(self):
        from repro.backends.numpy_backend import NumpyBackend

        self.py = PythonBackend()
        self.np_backend = NumpyBackend()

    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=30), max_size=12),
        lo=st.integers(min_value=-1, max_value=15),
        hi=st.integers(min_value=-1, max_value=35),
    )
    @settings(max_examples=50, deadline=None)
    def test_size_filter(self, sizes, lo, hi):
        assert self.py.size_filter_indices(
            sizes, lo, hi
        ) == self.np_backend.size_filter_indices(sizes, lo, hi)

    @given(
        values=st.lists(
            st.floats(min_value=0, max_value=10, allow_nan=False), max_size=12
        ),
        cutoff=st.floats(min_value=0, max_value=10, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_threshold(self, values, cutoff):
        assert self.py.threshold_indices(
            values, cutoff
        ) == self.np_backend.threshold_indices(values, cutoff)

    @given(
        scalar=st.floats(min_value=0, max_value=10, allow_nan=False),
        values=st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False), max_size=12
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_add_scalar(self, scalar, values):
        got = self.np_backend.add_scalar(scalar, values)
        expected = self.py.add_scalar(scalar, values)
        assert got == pytest.approx(expected, abs=1e-12)

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
    def test_token_similarities(self, probe, targets, kind, alpha):
        phi = SimilarityFunction(kind=kind, alpha=alpha)
        got = self.np_backend.token_similarities(probe, targets, phi)
        expected = self.py.token_similarities(probe, targets, phi)
        assert got == pytest.approx(expected, abs=1e-12)
