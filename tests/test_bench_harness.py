"""Tests for the benchmark harness and reporting helpers."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from repro.backends import ComputeBackend, available_backends, get_backend
from repro.bench.harness import run_discovery, run_search, run_workload
from repro.bench.reporting import format_series
from repro.core.config import Relatedness, SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.sim.functions import SimilarityKind
from repro.workloads.applications import inclusion_dependency, schema_matching
from strategies.kernels import KERNEL_MODES, kernel_mode


class TestHarness:
    def test_run_discovery(self):
        collection = SetCollection.from_strings(
            [["a b", "c d"], ["a b", "c d"], ["x y"]]
        )
        config = SilkMothConfig(metric=Relatedness.SIMILARITY, delta=0.9)
        result = run_discovery(collection, config, label="smoke")
        assert result.label == "smoke"
        assert result.matches == 1
        assert result.seconds > 0
        # Symmetric self-discovery: the last reference has no set after
        # it, so it runs no pass.
        assert result.stats.passes == 2

    def test_run_search(self):
        collection = SetCollection.from_strings(
            [["a b", "c d", "e f", "g h", "i j"], ["a b", "c d"], ["x y"]]
        )
        config = SilkMothConfig(metric=Relatedness.CONTAINMENT, delta=0.9)
        result = run_search(collection, config, reference_ids=[1])
        assert result.matches == 1  # set1 contained in set0

    def test_run_workload_discovery_mode(self):
        workload = schema_matching(n_sets=30)
        result = run_workload(workload, label="schema")
        assert result.seconds > 0
        assert result.stats.passes == 29  # all but the last reference

    def test_run_workload_search_mode(self):
        workload = inclusion_dependency(n_sets=40, n_references=5)
        result = run_workload(workload)
        assert result.stats.passes == 5


class TestReporting:
    def test_format_series_contains_all_points(self):
        text = format_series(
            "Figure X", "theta", [0.7, 0.8],
            {"OPT": [1.0, 0.5], "NOOPT": [3.0, 2.0]},
        )
        assert "Figure X" in text
        assert "OPT" in text and "NOOPT" in text
        assert "0.7" in text and "0.8" in text

    def test_format_series_extra_columns(self):
        text = format_series(
            "Fig", "n", [10], {"t": [0.1]}, extra={"candidates": [42]}
        )
        assert "candidates" in text
        assert "42" in text


E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


@pytest.fixture(scope="module")
def tracer():
    # The tracer imports its sibling ``clock`` module by bare name.
    sys.path.insert(0, str(E2E))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(E2E))


class TestTracerWrapPoints:
    """``benchmarks/e2e/tracer.py`` replaces program callables by name.

    A renamed method surfaces there as a bare ``AttributeError`` -- for
    a backend method, a bare ``StopIteration`` -- in the middle of a
    benchmark run; these name the missing attribute instead.
    """

    def test_wrap_points_resolve(self, tracer):
        missing = []
        for module_name, cls, attribute, span_name, _ in tracer.WRAP_POINTS:
            owner = importlib.import_module(module_name)
            if cls is not None:
                owner = getattr(owner, cls, None)
            if owner is None or not callable(getattr(owner, attribute, None)):
                where = f"{module_name}.{cls}" if cls else module_name
                missing.append(f"{where}.{attribute} ({span_name})")
        assert not missing, f"tracer wrap points missing in src/: {missing}"

    def test_backend_points_resolve_on_every_backend(self, tracer):
        missing = [
            f"{type(backend).__name__}.{attribute} ({span_name})"
            for backend in map(get_backend, available_backends())
            for attribute, span_name, _ in tracer.BACKEND_POINTS
            # The tracer wraps the method on the class that defines it.
            if not any(attribute in vars(cls) for cls in type(backend).__mro__)
        ]
        assert not missing, f"tracer backend points missing in src/: {missing}"

    @pytest.mark.parametrize("kernels", KERNEL_MODES)
    @pytest.mark.parametrize(
        "kind", [SimilarityKind.JACCARD, SimilarityKind.EDS], ids=["token", "edit"]
    )
    def test_installed_tracer_times_the_backend_and_undoes_itself(
        self, tracer, kind, kernels
    ):
        """A traced round in small: the same rows, backend spans, no residue."""
        if kind.is_token_based:
            words = ["ash bay", "bay elm", "elm fir", "fir oak", "oak ash"]
            sets = [[words[(i + j) % 5] for j in range(1 + i % 3)] for i in range(24)]
        else:
            texts = ["silkmoth paper", "silkmoth papers", "silk moth", "moth"]
            sets = [
                [texts[(i + j) % 4] + "x" * (i % 2) for j in range(1 + i % 3)]
                for i in range(24)
            ]
        config = SilkMothConfig(similarity=kind, delta=0.5, alpha=0.6)

        def discover():
            collection = SetCollection.from_strings(
                sets, kind=kind, q=config.effective_q
            )
            return SilkMoth(collection, config).discover()

        methods = [attribute for attribute, _, _ in tracer.BACKEND_POINTS]
        before = {name: inspect.getattr_static(ComputeBackend, name) for name in methods}
        with kernel_mode(kernels):
            expected = discover()
            with tracer.Tracer().installed() as traced:
                got = discover()
        assert got == expected and got
        names = {span[0] for span in traced.spans}
        # Token kinds score distinct contents and count sparse rows; edit
        # kinds merge posting runs, batch their NN scores and verify
        # from one grid per pass.
        assert {"core.discover", "backends.assignment"} | (
            {"backends.token_sims", "backends.weight_matrix"}
            if kind.is_token_based
            else {"backends.merge_postings", "backends.edit_values"}
        ) <= names
        if kind.is_edit_based:
            assert traced.counts["backends.edit_values"] > 0
        after = {name: inspect.getattr_static(ComputeBackend, name) for name in methods}
        assert after == before
