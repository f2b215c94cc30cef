"""Unweighted and combined-unweighted signature schemes.

The unweighted scheme (Section 4.2) is the prior state of the art: for
the matching score to reach theta there must be at least ``c =
ceil(theta)`` element pairs sharing a token, so removing any ``c - 1``
token occurrences from the multiset R^T leaves a valid signature.  The
greedy removes occurrences of the most expensive (longest inverted
list) tokens first.

The combined-unweighted scheme (Section 6.2) additionally trims each
element to its sim-thresh budget.  Per Section 8.5, this "more precisely
describes the signature scheme proposed by" FastJoin, so it doubles as
the signature component of our FastJoin baseline.
"""

from __future__ import annotations

import math
from collections import defaultdict

from repro.core.records import SetRecord
from repro.index.inverted import InvertedIndex
from repro.sim.functions import SimilarityFunction
from repro.signatures.base import Signature, SignatureScheme, cheapest
from repro.signatures.weights import weights_for


class UnweightedScheme(SignatureScheme):
    """Remove the ``ceil(theta) - 1`` most expensive token occurrences."""

    name = "unweighted"

    #: Whether the per-element sim-thresh trim of Section 6.2 is applied.
    use_sim_thresh = False

    def generate(
        self,
        reference: SetRecord,
        theta: float,
        phi: SimilarityFunction,
        index: InvertedIndex,
    ) -> Signature | None:
        """Drop the ``ceil(theta) - 1`` costliest token occurrences.

        Validity of the removal argument for the edit kinds requires
        the planner's no-share-cap precondition
        (:mod:`repro.planner.validity`); out of that regime the engine
        never runs this scheme -- it full-scans instead.
        """
        weights = weights_for(reference, phi)
        occurrences: dict[int, list[int]] = defaultdict(list)
        for i, element in enumerate(reference.elements):
            for token in element.signature_tokens:
                occurrences[token].append(i)
        total_occurrences = sum(len(v) for v in occurrences.values())

        removable = math.ceil(theta) - 1
        if removable >= total_occurrences:
            # theta exceeds the number of token occurrences: removing
            # everything would be "valid" but useless; fall back to the
            # full-scan sentinel only if theta also exceeds what any set
            # could score (cannot certify with an empty signature).
            return None

        # Remove whole tokens, most expensive first, while the occurrence
        # budget allows; a token only leaves the flattened signature if
        # all its occurrences are removed.
        by_cost = sorted(occurrences, key=lambda t: (-index.list_length(t), t))
        removed: set[int] = set()
        budget = removable
        for token in by_cost:
            occ = len(occurrences[token])
            if occ <= budget:
                removed.add(token)
                budget -= occ
            if budget == 0:
                break

        per_element: list[set[int]] = [set() for _ in range(len(reference))]
        for token, element_indices in occurrences.items():
            if token in removed:
                continue
            for i in element_indices:
                per_element[i].add(token)

        if self.use_sim_thresh and phi.alpha > 0.0:
            for i, tokens in enumerate(per_element):
                if len(tokens) > weights[i].budget:
                    per_element[i] = cheapest(tokens, index, weights[i].budget)

        return Signature(
            tokens=frozenset().union(*per_element),
            per_element=tuple(frozenset(s) for s in per_element),
            element_bounds=tuple(
                w.effective[len(s)] for w, s in zip(weights, per_element)
            ),
            scheme=self.name,
        )


class CombinedUnweightedScheme(UnweightedScheme):
    """Unweighted + sim-thresh trim: the FastJoin-style signature."""

    name = "comb_unweighted"
    use_sim_thresh = True
