"""The sim-thresh signature scheme (paper Sections 6.1 and 7.2).

With an element similarity threshold ``alpha > 0``, picking enough
tokens from *each* element guarantees that any element sharing none of
them falls below alpha and contributes nothing to the matching.  The
scheme is alpha-valid only when every element meets its budget; when an
element offers too few tokens (possible for edit similarity), no
standalone sim-thresh signature exists and ``generate`` returns None.
"""

from __future__ import annotations

from repro.core.records import SetRecord
from repro.index.inverted import InvertedIndex
from repro.sim.functions import SimilarityFunction
from repro.signatures.base import Signature, SignatureScheme, cheapest
from repro.signatures.weights import weights_for


class SimThreshScheme(SignatureScheme):
    """Per-element token budgets derived from alpha alone."""

    name = "sim_thresh"

    def generate(
        self,
        reference: SetRecord,
        theta: float,
        phi: SimilarityFunction,
        index: InvertedIndex,
    ) -> Signature | None:
        """Per-element alpha budgets, or None when an element falls short."""
        if phi.alpha <= 0.0:
            # Without a similarity threshold every token of every element
            # would be required; there is no useful sim-thresh signature.
            return None

        per_element: list[frozenset[int]] = []
        for w, element in zip(weights_for(reference, phi), reference.elements):
            if w.budget > w.n_tokens:
                # The element cannot be covered (``NO_BUDGET`` included,
                # for an empty element): the scheme is empty.
                return None
            per_element.append(cheapest(element.signature_tokens, index, w.budget))

        return Signature(
            tokens=frozenset().union(*per_element),
            per_element=tuple(per_element),
            element_bounds=(0.0,) * len(per_element),  # every element saturated
            scheme=self.name,
        )
