"""Candidate refinement filters (paper Section 5).

After candidate selection, two filters prune sets that provably cannot
reach the matching threshold theta:

* :mod:`repro.filters.check` -- the check filter (Section 5.1): when a
  candidate element matched a signature token, compute its actual
  similarity; if no match beats its element's bound, the signature's
  residual bound still caps the whole matching.
* :mod:`repro.filters.nearest_neighbor` -- the nearest-neighbour filter
  (Section 5.2): the matching score is at most the sum of per-element
  nearest-neighbour similarities; computed lazily with computation
  reuse and early termination, one reference element at a time for all
  candidates of a pass.
"""

from repro.filters.check import CandidateInfo, select_and_check, select_columns
from repro.filters.nearest_neighbor import (
    nearest_neighbor_filter,
    nn_filter_columns,
    nn_search,
    nn_search_group,
)

__all__ = [
    "CandidateInfo",
    "nearest_neighbor_filter",
    "nn_filter_columns",
    "nn_search",
    "nn_search_group",
    "select_and_check",
    "select_columns",
]
