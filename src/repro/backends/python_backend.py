"""The pure-Python reference compute backend.

Always available, no third-party imports.  Every other backend is
verified against this one: it is the executable specification of the
kernel semantics.
"""

from __future__ import annotations

from typing import Sequence

from repro.backends.base import ComputeBackend
from repro.sim.functions import SimilarityFunction


class PythonBackend(ComputeBackend):
    """Plain-list kernels; the exactness reference for all backends."""

    name = "python"

    # -- columnar kernels ----------------------------------------------
    def size_filter_indices(
        self, sizes: Sequence[int], lo: float, hi: float
    ) -> list[int]:
        """Indices k with ``lo <= sizes[k] <= hi`` (plain list scan)."""
        return [k for k, size in enumerate(sizes) if lo <= size <= hi]

    def threshold_indices(
        self, values: Sequence[float], cutoff: float
    ) -> list[int]:
        """Indices k with ``values[k] >= cutoff`` (plain list scan)."""
        return [k for k, value in enumerate(values) if value >= cutoff]

    def add_scalar(self, scalar: float, values: Sequence[float]) -> list[float]:
        """Elementwise ``scalar + values`` as a list comprehension."""
        return [scalar + value for value in values]

    # -- similarity kernels --------------------------------------------
    def token_similarities(
        self,
        probe: frozenset[int],
        targets: Sequence[frozenset[int]],
        phi: SimilarityFunction,
    ) -> list[float]:
        """``phi_alpha(probe, target)`` per target via the scalar formulas."""
        return [phi.tokens(probe, target) for target in targets]
