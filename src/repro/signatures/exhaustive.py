"""Ablation schemes: exhaustive-optimal and randomised signature selection.

Problem 3 (optimal valid signature selection) is NP-complete
(Theorem 2), which is why the production schemes are greedy heuristics.
Two extra schemes make that design choice measurable:

* :class:`ExhaustiveScheme` solves Problem 3 *exactly* by branch and
  bound over token subsets.  It is exponential in the number of
  distinct tokens, so it enforces a hard token cap and falls back to
  the greedy beyond it; within the cap it certifies how far the greedy
  is from optimal (see ``benchmarks/test_ablation_signatures.py``).
* :class:`RandomScheme` selects random tokens until validity holds --
  the "how bad can it get" floor for signature quality.

Both emit signatures inside the weighted scheme, so every exactness
guarantee is preserved; only candidate counts differ.
"""

from __future__ import annotations

import random

from repro.core.records import SetRecord
from repro.index.inverted import InvertedIndex
from repro.sim.functions import SimilarityFunction
from repro.signatures.base import Signature, SignatureScheme
from repro.signatures.weighted import greedy_signature, rank_tokens
from repro.signatures.weights import weights_for


def signature_cost(signature: Signature, index: InvertedIndex) -> int:
    """Problem 3's objective: total inverted-list length of the tokens."""
    return sum(index.list_length(token) for token in signature.tokens)


class ExhaustiveScheme(SignatureScheme):
    """Exact optimal valid signature by branch and bound.

    Parameters
    ----------
    max_tokens:
        Hard cap on the number of distinct signature-eligible tokens;
        references with more fall back to the greedy weighted scheme
        (the search space doubles per token).
    """

    name = "exhaustive"

    def __init__(self, max_tokens: int = 18):
        self.max_tokens = max_tokens

    def generate(
        self,
        reference: SetRecord,
        theta: float,
        phi: SimilarityFunction,
        index: InvertedIndex,
    ) -> Signature | None:
        """Branch-and-bound over token subsets; greedy beyond the cap."""
        weights = weights_for(reference, phi)
        ranked, occurrences = rank_tokens(reference, index, weights)
        greedy = greedy_signature(ranked, occurrences, weights, theta, self.name)
        if greedy is None or len(ranked) > self.max_tokens:
            # Not even all tokens certify the bound, or the search space
            # is too large: the greedy answer stands.
            return greedy

        n = len(reference)
        tokens = ranked  # cheap tokens first helps pruning
        costs = [index.list_length(token) for token in tokens]
        best_cost = signature_cost(greedy, index)
        best_selection: list[int] | None = None
        initial_residual = sum(w.bounds[0] for w in weights)

        selected_counts = [0] * n
        chosen: list[int] = []

        def descend(pos: int, cost_so_far: int, residual: float) -> None:
            nonlocal best_cost, best_selection
            if residual < theta:
                if cost_so_far < best_cost:
                    best_cost = cost_so_far
                    best_selection = list(chosen)
                return
            if pos == len(tokens):
                return
            # Prune: even the remaining tokens cannot reach a cheaper
            # signature (costs are non-negative).
            if cost_so_far >= best_cost:
                return
            # Branch 1: take tokens[pos].
            token = tokens[pos]
            delta = 0.0
            for i in occurrences[token]:
                delta += weights[i].marginals[selected_counts[i]]
                selected_counts[i] += 1
            chosen.append(token)
            descend(pos + 1, cost_so_far + costs[pos], residual - delta)
            chosen.pop()
            for i in occurrences[token]:
                selected_counts[i] -= 1
            # Branch 2: skip tokens[pos] -- only if the rest can still
            # push the residual below theta.
            remaining = 0.0
            counts_copy = list(selected_counts)
            for later in tokens[pos + 1 :]:
                for i in occurrences[later]:
                    remaining += weights[i].marginals[counts_copy[i]]
                    counts_copy[i] += 1
            if residual - remaining < theta:
                descend(pos + 1, cost_so_far, residual)

        descend(0, 0, initial_residual)

        if best_selection is None:
            return greedy
        return self._materialise(best_selection, occurrences, weights)

    def _materialise(self, selection, occurrences, weights) -> Signature:
        n = len(weights)
        per_element: list[set[int]] = [set() for _ in range(n)]
        selected_counts = [0] * n
        for token in selection:
            for i in occurrences[token]:
                per_element[i].add(token)
                selected_counts[i] += 1
        return Signature(
            tokens=frozenset(selection),
            per_element=tuple(frozenset(s) for s in per_element),
            element_bounds=tuple(
                w.effective[count] for w, count in zip(weights, selected_counts)
            ),
            scheme=self.name,
        )


class RandomScheme(SignatureScheme):
    """Uniformly random token selection until the bound certifies.

    Deterministic per reference (seeded by set id) so runs are
    reproducible.  Exists purely as an ablation floor: it shows how
    much of SilkMoth's win comes from *which* tokens the greedy picks
    rather than from having a valid signature at all.
    """

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def generate(
        self,
        reference: SetRecord,
        theta: float,
        phi: SimilarityFunction,
        index: InvertedIndex,
    ) -> Signature | None:
        """Randomised selection until the residual bound certifies."""
        weights = weights_for(reference, phi)
        ranked, occurrences = rank_tokens(reference, index, weights)
        if not ranked:
            return None
        rng = random.Random((self.seed << 20) ^ reference.set_id)
        rng.shuffle(ranked)
        return greedy_signature(ranked, occurrences, weights, theta, self.name)
