"""Per-element weight arithmetic shared by the signature schemes.

The weighted signature scheme attributes to each element r_i an upper
bound on ``phi(r_i, s)`` over all s sharing no token with the chosen
``k_i``.  With ``x = |r_i| - |k_i|`` the maximum number of tokens such
an s can still share:

* Jaccard (Section 4.2): ``x / |r_i|`` -- since ``|r_i u s| >= |r_i|``.
* Dice: ``2x / (|r_i| + x)`` -- since ``|s| >= x`` and Dice is
  increasing in the intersection.
* Cosine: ``sqrt(x / |r_i|)`` -- since ``|s| >= x`` gives
  ``x / sqrt(|r_i| x)``.
* Overlap: 1 unless *every* token is selected -- a set consisting of a
  single shared token already achieves overlap 1, so no partial
  signature can bound it.
* Edit similarity (Section 7.1): ``|r_i| / (|r_i| + |k_i|)`` where
  ``|r_i|`` is the string length and ``k_i`` counts selected q-chunks.

The sim-thresh family additionally saturates an element once it holds
enough tokens that any non-matching element must fall below ``alpha``
(the bound then collapses to 0):

* Jaccard (Section 6.1): ``floor((1 - alpha) |r_i|) + 1`` tokens.
* Dice: ``floor((2 - 2 alpha) / (2 - alpha) * |r_i|) + 1`` -- from
  ``2x / (|r_i| + x) < alpha  <=>  x < alpha |r_i| / (2 - alpha)``.
* Cosine: ``floor((1 - alpha^2) |r_i|) + 1`` -- from
  ``sqrt(x / |r_i|) < alpha  <=>  x < alpha^2 |r_i|``.
* Overlap: all ``|r_i|`` tokens -- one shared token suffices for
  overlap 1, so only a signature containing every token guarantees a
  non-matching element scores 0.
* Edit (Section 7.2): ``floor((1 - alpha) / alpha * |r_i|) + 1`` chunks.

Every budget is *sound* for exactness (Lemma 1 style: missing the
budget implies the bound), but only Jaccard's is also tight (Lemma 2);
for the other token kinds the adversarial set of Lemma 2 does not
achieve the bound exactly, so the scheme is valid-but-not-complete,
which exactness does not require.

Per-shape tables: all of the above depends on an element only through
its *shape* ``(phi.kind, phi.alpha, |r_i|, number of signature
tokens)``.  So :func:`weights_for` hands out one shared
:class:`ElementWeights` per distinct shape, whose tables hold every
bound, marginal and alpha-cut bound the greedy can ask for; the schemes
index them instead of recomputing :meth:`ElementWeights.bound` per
token occurrence.  Nothing in a table depends on the index, so no
mutation invalidates one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from repro.core.constants import EPSILON
from repro.core.records import SetRecord
from repro.sim.functions import SimilarityFunction, SimilarityKind

#: Sentinel for "no sim-thresh budget applies" (alpha == 0).
NO_BUDGET = 1 << 60


def robust_floor(value: float) -> int:
    """floor(value), treating values within EPSILON of an integer as exact.

    Guards against float noise pushing a mathematically-integer value
    just below the integer before flooring (soundness requires rounding
    UP in that case: the budget must strictly exceed the real threshold).
    """
    return math.floor(value + EPSILON)


def _sim_thresh_budget(kind: SimilarityKind, length: int, alpha: float) -> int:
    """Smallest signature size m such that ``s cap m = {}`` forces
    ``phi(r, s) < alpha`` (see module docstring for the derivations)."""
    if kind is SimilarityKind.JACCARD:
        return robust_floor((1.0 - alpha) * length) + 1
    if kind is SimilarityKind.DICE:
        return robust_floor((2.0 - 2.0 * alpha) / (2.0 - alpha) * length) + 1
    if kind is SimilarityKind.COSINE:
        return robust_floor((1.0 - alpha * alpha) * length) + 1
    if kind is SimilarityKind.OVERLAP:
        return length
    # Edit kinds: floor((1 - alpha) / alpha * |r|) + 1 q-chunks.
    return robust_floor((1.0 - alpha) / alpha * length) + 1


@dataclass(frozen=True)
class ElementWeights:
    """Weight tables for one element shape.

    Built once per shape by :func:`weights_for` and shared by every
    element of that shape.  The tables are indexed by ``s``, the number
    of signature tokens selected from the element.

    Attributes
    ----------
    kind, alpha:
        The similarity kind and element threshold of ``phi``.
    length:
        The paper's ``|r_i|`` (distinct word tokens, or string length).
    n_tokens:
        How many distinct signature tokens the element offers.
    budget:
        The sim-thresh saturation size; ``NO_BUDGET`` when alpha == 0.
    bounds:
        ``bounds[s] == bound(s)`` for ``s = 0 .. n_tokens``.
    marginals:
        ``marginals[s] == bounds[s] - bounds[s + 1]``, the bound decrease
        the ``s+1``-th selected token buys, for ``s = 0 .. n_tokens - 1``.
    effective:
        The filter-facing bound for ``s = 0 .. n_tokens``: 0 once the
        element is saturated (``s >= budget``: any non-matching element
        falls below alpha) or once the raw bound is below alpha (the
        thresholded similarity is 0 either way), else ``bounds[s]``.
    """

    kind: SimilarityKind
    alpha: float
    length: int
    n_tokens: int
    budget: int = field(init=False)
    bounds: tuple[float, ...] = field(init=False, repr=False)
    marginals: tuple[float, ...] = field(init=False, repr=False)
    effective: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        alpha = self.alpha
        if alpha <= 0.0 or self.length == 0:
            budget = NO_BUDGET
        else:
            budget = _sim_thresh_budget(self.kind, self.length, alpha)
        bounds = tuple(self.bound(s) for s in range(self.n_tokens + 1))
        put = object.__setattr__
        put(self, "budget", budget)
        put(self, "bounds", bounds)
        put(self, "marginals", tuple(a - b for a, b in zip(bounds, bounds[1:])))
        put(
            self,
            "effective",
            tuple(
                0.0 if s >= budget or raw < alpha else raw
                for s, raw in enumerate(bounds)
            ),
        )

    def bound(self, selected: int) -> float:
        """Upper bound on ``phi(r_i, s)`` with *selected* signature tokens.

        Valid for any s sharing none of the selected tokens.  Elements
        with no tokens at all are unboundable and return 1.0.  The
        arithmetic behind :attr:`bounds`; schemes read the table.
        """
        if self.length == 0 or self.n_tokens == 0:
            return 1.0 if selected == 0 else 0.0
        if self.kind is SimilarityKind.JACCARD:
            return max(0.0, (self.length - selected) / self.length)
        if self.kind is SimilarityKind.DICE:
            x = max(0, self.length - selected)
            return 2.0 * x / (self.length + x) if x else 0.0
        if self.kind is SimilarityKind.COSINE:
            x = max(0, self.length - selected)
            return math.sqrt(x / self.length) if x else 0.0
        if self.kind is SimilarityKind.OVERLAP:
            return 1.0 if selected < self.n_tokens else 0.0
        return self.length / (self.length + selected)


#: ``(kind, alpha, length, n_tokens)`` -> the shape's shared tables.
_shape = functools.lru_cache(maxsize=None)(ElementWeights)


def weights_for(reference: SetRecord, phi: SimilarityFunction) -> list[ElementWeights]:
    """The shared :class:`ElementWeights` of every element of *reference*."""
    kind, alpha = phi.kind, phi.alpha
    return [
        _shape(kind, alpha, element.length, len(element.signature_tokens))
        for element in reference.elements
    ]
