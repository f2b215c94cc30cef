"""Signature generation (paper Sections 4, 6 and 7).

A *signature* for a reference set R is a subset of R's tokens such that
any set S related to R must share at least one signature token.  The
engine probes the inverted index with the signature tokens to obtain the
initial candidates; everything else is refinement.

Schemes implemented (all selectable by name through
:func:`get_scheme`):

====================  =====================================================
``weighted``          Section 4.2/4.3 -- the full space of valid
                      signatures for ``alpha = 0``; greedy cost/value
                      selection.
``unweighted``        Section 4.2 -- the state-of-the-art prefix-style
                      scheme: remove ``ceil(theta) - 1`` token
                      occurrences.
``sim_thresh``        Section 6.1 -- tokens chosen per element from the
                      ``alpha`` constraint alone.
``comb_unweighted``   Section 6.2 -- unweighted + sim-thresh; the
                      FastJoin-style scheme the paper compares against.
``skyline``           Section 6.3 -- weighted signature post-trimmed by
                      the sim-thresh element budget.
``dichotomy``         Section 6.4 -- greedy that saturates whole
                      elements once the sim-thresh budget is reached.
``exhaustive``        Problem 3 / Theorem 2 ablation -- the optimal
                      weighted signature by branch and bound, greedy
                      beyond a token cap.
``random``            Ablation floor -- random token order, same
                      stopping rule as the weighted greedy.
====================  =====================================================

Every scheme reads its per-element bounds from the per-shape tables of
:mod:`repro.signatures.weights`.  Token costs are
:meth:`~repro.index.inverted.InvertedIndex.list_length`; the ranking
that costs every token of a reference reads the same lengths through
the index's :meth:`~repro.index.inverted.InvertedIndex.posting_lists`
view.
"""

from repro.signatures.base import Signature, SignatureScheme
from repro.signatures.weights import ElementWeights
from repro.signatures.weighted import WeightedScheme
from repro.signatures.unweighted import CombinedUnweightedScheme, UnweightedScheme
from repro.signatures.sim_thresh import SimThreshScheme
from repro.signatures.skyline import SkylineScheme
from repro.signatures.dichotomy import DichotomyScheme
from repro.signatures.exhaustive import (
    ExhaustiveScheme,
    RandomScheme,
    signature_cost,
)

_SCHEMES = {
    "weighted": WeightedScheme,
    "unweighted": UnweightedScheme,
    "comb_unweighted": CombinedUnweightedScheme,
    "sim_thresh": SimThreshScheme,
    "skyline": SkylineScheme,
    "dichotomy": DichotomyScheme,
    "exhaustive": ExhaustiveScheme,
    "random": RandomScheme,
}

SCHEME_NAMES = tuple(sorted(_SCHEMES))


def get_scheme(name: str) -> SignatureScheme:
    """Instantiate a signature scheme by its registry name."""
    try:
        return _SCHEMES[name]()
    except KeyError:
        raise ValueError(
            f"unknown signature scheme {name!r}; choose from {SCHEME_NAMES}"
        ) from None


__all__ = [
    "CombinedUnweightedScheme",
    "DichotomyScheme",
    "ElementWeights",
    "ExhaustiveScheme",
    "RandomScheme",
    "signature_cost",
    "SCHEME_NAMES",
    "Signature",
    "SignatureScheme",
    "SimThreshScheme",
    "SkylineScheme",
    "UnweightedScheme",
    "WeightedScheme",
    "get_scheme",
]
