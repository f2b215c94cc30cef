"""The weighted signature scheme (paper Sections 4.2-4.3 and 7.1).

Theorem 1 shows this scheme is exactly the space of valid signatures
(for ``alpha = 0``); Theorem 2 shows picking the optimal member is
NP-complete.  Following Section 4.3 we use the knapsack-style greedy:
rank tokens by ``cost / value`` ascending -- cost is the inverted-list
length, value the total bound reduction the token buys -- and select
until the residual bound drops below theta.
"""

from __future__ import annotations

from itertools import repeat
from math import inf
from operator import itemgetter
from typing import Iterable

from repro.core.records import SetRecord
from repro.index.inverted import InvertedIndex
from repro.sim.functions import SimilarityFunction
from repro.signatures.base import Signature, SignatureScheme
from repro.signatures.weights import ElementWeights, weights_for


def rank_tokens(
    reference: SetRecord,
    index: InvertedIndex,
    weights: list[ElementWeights],
) -> tuple[list[int], dict[int, list[int]]]:
    """Distinct signature tokens ranked by cost/value ascending.

    Returns the ranked token list and a map from token id to the indices
    of the reference elements containing it.  The value of a token is the
    sum over its elements of the first-selection marginal bound decrease
    (exact for Jaccard, where marginals are constant per element; a
    standard static approximation for edit similarity), each a builtin
    ``sum`` in element order; a value <= 0 ranks last, ties by token id.
    """
    occurrences: dict[int, list[int]] = {}
    for i, element in enumerate(reference.elements):
        for token in element.signature_tokens:
            if token in occurrences:  # a plain dict: no __missing__ call
                occurrences[token].append(i)
            else:
                occurrences[token] = [i]
    first = [w.marginals[0] if w.marginals else 0.0 for w in weights]  # no token
    costs = map(len, map(index.posting_lists().get, occurrences, repeat(())))
    values = map(sum, map(map, repeat(first.__getitem__), occurrences.values()))
    keys = [c / v if v > 0.0 else inf for c, v in zip(costs, values)]
    return list(map(itemgetter(1), sorted(zip(keys, occurrences)))), occurrences


def greedy_signature(
    order: Iterable[int],
    occurrences: dict[int, list[int]],
    weights: list[ElementWeights],
    theta: float,
    scheme: str,
) -> Signature | None:
    """Select tokens in *order* until the residual bound drops below theta.

    The greedy of Section 4.3 over already-built *weights* and
    *occurrences* (:func:`rank_tokens`); every token taken lowers each
    of its elements' bounds by the next marginal.  Returns None when
    even the full token set cannot certify the bound -- no valid
    signature exists (Section 7.3) and the caller must full-scan.
    """
    n = len(weights)
    selected_counts = [0] * n
    per_element: list[set[int]] = [set() for _ in range(n)]
    chosen: set[int] = set()
    residual = sum(w.bounds[0] for w in weights)

    for token in order:
        if residual < theta:
            break
        for i in occurrences[token]:
            residual -= weights[i].marginals[selected_counts[i]]
            selected_counts[i] += 1
            per_element[i].add(token)
        chosen.add(token)

    if residual >= theta:
        return None
    return Signature(
        tokens=frozenset(chosen),
        per_element=tuple(frozenset(s) for s in per_element),
        element_bounds=tuple(
            w.effective[count] for w, count in zip(weights, selected_counts)
        ),
        scheme=scheme,
    )


class WeightedScheme(SignatureScheme):
    """Greedy selection within the weighted signature scheme.

    Ignores ``alpha`` during construction (the signature is valid for
    any alpha); the emitted per-element bounds are still alpha-tightened
    because that is always sound.
    """

    name = "weighted"

    def generate(
        self,
        reference: SetRecord,
        theta: float,
        phi: SimilarityFunction,
        index: InvertedIndex,
    ) -> Signature | None:
        """Greedy cost/value token selection until ``residual < theta``."""
        weights = weights_for(reference, phi)
        ranked, occurrences = rank_tokens(reference, index, weights)
        return greedy_signature(ranked, occurrences, weights, theta, self.name)
