"""The dichotomy signature scheme (paper Section 6.4).

The skyline observation: whenever ``k_i`` grows past the sim-thresh
budget, one may as well treat ``k_i = r_i`` -- the element's entire
residual weight vanishes from the bound, freeing other elements to shed
tokens.  The dichotomy greedy therefore adds tokens in cost/value order
but *saturates* an element the moment its selected-token count reaches
the budget: the element's remaining bound is zeroed and no further
tokens are drawn from it.
"""

from __future__ import annotations

from repro.core.records import SetRecord
from repro.index.inverted import InvertedIndex
from repro.sim.functions import SimilarityFunction
from repro.signatures.base import Signature, SignatureScheme
from repro.signatures.weighted import greedy_signature, rank_tokens
from repro.signatures.weights import weights_for


class DichotomyScheme(SignatureScheme):
    """Cost/value greedy with whole-element saturation at the alpha budget."""

    name = "dichotomy"

    def generate(
        self,
        reference: SetRecord,
        theta: float,
        phi: SimilarityFunction,
        index: InvertedIndex,
    ) -> Signature | None:
        """Greedy selection that saturates whole elements (Section 6.4)."""
        weights = weights_for(reference, phi)
        ranked, occurrences = rank_tokens(reference, index, weights)
        if phi.alpha <= 0.0:
            # Identical to the weighted scheme when no alpha budget exists.
            return greedy_signature(ranked, occurrences, weights, theta, self.name)

        n = len(reference)
        selected_counts = [0] * n
        per_element: list[set[int]] = [set() for _ in range(n)]
        residual = sum(w.bounds[0] for w in weights)

        for token in ranked:
            if residual < theta:
                break
            for i in occurrences[token]:
                w = weights[i]
                count = selected_counts[i]
                if count >= w.budget:
                    continue  # saturated: no further tokens from it
                residual -= w.marginals[count]
                count = selected_counts[i] = count + 1
                per_element[i].add(token)
                if count >= w.budget:
                    # The rest of the element's weight disappears: any
                    # element missing all budget tokens is below alpha.
                    residual -= w.bounds[count]

        if residual >= theta:
            return None

        # A saturated element's effective bound is 0.
        return Signature(
            tokens=frozenset().union(*per_element),
            per_element=tuple(frozenset(s) for s in per_element),
            element_bounds=tuple(
                w.effective[count] for w, count in zip(weights, selected_counts)
            ),
            scheme=self.name,
        )
