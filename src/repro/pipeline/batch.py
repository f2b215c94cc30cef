"""Columnar candidate batches flowing between pipeline stages.

Stages exchange a :class:`CandidateBatch` -- parallel arrays of set
ids, witnessed gains, witnessed-similarity maps and score upper bounds
-- instead of per-candidate objects.  The check stage builds it from
the index probe's witnessed rows
(:func:`repro.filters.check.check_columns`); a full scan's select
stage builds it directly.  The numeric columns are plain lists, so the
batch type stays picklable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class CandidateBatch:
    """One stage's surviving candidates, as parallel columns.

    Attributes
    ----------
    set_ids:
        Candidate set ids, ascending.
    gains:
        Witnessed check-filter improvement over the signature residual
        per candidate (``sum_i best_i - u_i`` over witnessed elements).
    estimates:
        Current upper bound on the matching score per candidate
        (``inf`` until a filter stage tightens it).  Not consumed by the
        stock verify stage; it is part of the inter-stage contract so
        alternative final stages (top-k ordering, explain-style
        tracing, cost models) can consume it without re-deriving
        per-candidate state.
    best:
        Witnessed exact NN similarities per candidate: sparse maps from
        reference-element index to similarity (the computation-reuse
        state shared by the check and NN filters).
    """

    set_ids: list[int] = field(default_factory=list)
    gains: list[float] = field(default_factory=list)
    estimates: list[float] = field(default_factory=list)
    best: list[dict[int, float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.set_ids)

    def take(self, indices: Sequence[int]) -> "CandidateBatch":
        """A new batch holding only the rows at *indices* (in order)."""
        return CandidateBatch(
            set_ids=[self.set_ids[k] for k in indices],
            gains=[self.gains[k] for k in indices],
            estimates=[self.estimates[k] for k in indices],
            best=[self.best[k] for k in indices],
        )
