"""Maximum weighted bipartite matching (paper Sections 2.1 and 5.3).

The relatedness score ``|R ~cap~ S|`` is the weight of a maximum
bipartite matching between the elements of R and S, with edge weights
from ``phi_alpha``.  Weight matrices are sparse rows and
:mod:`repro.matching.sparse` solves only their ambiguous components; the
dense solver those go to is the Hungarian algorithm implemented from
scratch (:func:`hungarian_max_weight`), with a scipy-backed twin
(:func:`scipy_max_weight`) kept purely for cross-checking in tests.

:mod:`repro.matching.reduction` implements the triangle-inequality
reduction of Section 5.3: identical elements can be matched greedily
before running the cubic algorithm on the remainder.
"""

from repro.matching.hungarian import hungarian_max_weight, scipy_max_weight
from repro.matching.score import matching_score, build_weight_matrix
from repro.matching.reduction import reduced_matching_score

__all__ = [
    "build_weight_matrix",
    "hungarian_max_weight",
    "matching_score",
    "reduced_matching_score",
    "scipy_max_weight",
]
