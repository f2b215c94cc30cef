"""The skyline signature scheme (paper Section 6.3).

Theorem 5 shows the skyline scheme still contains the optimal
alpha-valid signature of the combined scheme.  The approximate
algorithm: generate a weighted signature K greedily, then for each
element whose ``k_i`` meets the sim-thresh budget, keep only the budget
many cheapest tokens of ``k_i`` (after which the element saturates and
its bound collapses to 0).
"""

from __future__ import annotations

from repro.core.records import SetRecord
from repro.index.inverted import InvertedIndex
from repro.sim.functions import SimilarityFunction
from repro.signatures.base import Signature, SignatureScheme, cheapest
from repro.signatures.weighted import greedy_signature, rank_tokens
from repro.signatures.weights import weights_for


class SkylineScheme(SignatureScheme):
    """Weighted greedy, post-trimmed by the per-element alpha budget."""

    name = "skyline"

    def generate(
        self,
        reference: SetRecord,
        theta: float,
        phi: SimilarityFunction,
        index: InvertedIndex,
    ) -> Signature | None:
        """Weighted signature post-trimmed to the sim-thresh budgets."""
        weights = weights_for(reference, phi)
        ranked, occurrences = rank_tokens(reference, index, weights)
        base = greedy_signature(ranked, occurrences, weights, theta, self.name)
        if base is None or phi.alpha <= 0.0:
            # The scheme degenerates to the weighted scheme at alpha = 0.
            return base

        per_element: list[frozenset[int]] = []
        bounds: list[float] = []
        for w, k_i in zip(weights, base.per_element):
            if len(k_i) >= w.budget:
                per_element.append(cheapest(k_i, index, w.budget))
                bounds.append(0.0)  # saturated: non-matchers fall below alpha
            else:
                per_element.append(k_i)
                bounds.append(w.effective[len(k_i)])

        return Signature(
            tokens=frozenset().union(*per_element),
            per_element=tuple(per_element),
            element_bounds=tuple(bounds),
            scheme=self.name,
        )
