"""The pure-Python reference compute backend.

Always available, no third-party imports.  Every other backend is
verified against this one: it is the executable specification of the
kernel semantics.
"""

from __future__ import annotations

from typing import Sequence

from repro.backends.base import ComputeBackend, fill_weight_matrix
from repro.core.records import SetRecord
from repro.matching.hungarian import hungarian_max_weight_python
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

    # -- verification kernels ------------------------------------------
    def weight_matrix(
        self,
        reference: SetRecord,
        candidate: SetRecord,
        phi: SimilarityFunction,
        memo=None,
        collection=None,
    ) -> list[list[float]]:
        """Dense list-of-lists weight matrix (sparse fill, zeros elsewhere).

        *collection* is accepted for interface parity and unused: the
        scalar fill already runs on the shared frozenset views.
        """
        if phi.kind.is_edit_based:
            return self.edit_grid(
                phi,
                [r.text for r in reference.elements],
                [s.text for s in candidate.elements],
                memo,
            )
        matrix = [[0.0] * len(candidate) for _ in range(len(reference))]

        def set_entry(i: int, j: int, weight: float) -> None:
            matrix[i][j] = weight

        fill_weight_matrix(reference, candidate, phi, set_entry)
        return matrix

    def assignment_score(self, matrix: list[list[float]]) -> float:
        """Maximum-weight assignment via the pure-Python Hungarian solve."""
        if not matrix or not matrix[0]:
            return 0.0
        return hungarian_max_weight_python(matrix)

    def matrix_entry(self, matrix: list[list[float]], i: int, j: int) -> float:
        """``matrix[i][j]``."""
        return matrix[i][j]

    def matrix_columns(
        self, matrix: list[list[float]], columns: Sequence[int]
    ) -> list[list[float]]:
        """Fresh rows holding the selected columns, in the given order."""
        return [[row[j] for j in columns] for row in matrix]
