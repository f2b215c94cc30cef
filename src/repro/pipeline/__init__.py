"""The staged query pipeline (paper Figure 1 as an explicit object).

One search pass is a :class:`~repro.pipeline.plan.QueryPlan` -- built
once per (reference, config) -- executing a fixed sequence of
:class:`~repro.pipeline.stages.Stage` objects::

    signature -> candidate-select -> check -> nn-filter -> verify

Stages hand each other a columnar
:class:`~repro.pipeline.batch.CandidateBatch` (parallel arrays of set
ids, sizes, bound estimates and witnessed similarities) and run their
kernels on the :mod:`repro.backends` compute backend.  Every
driver -- ``SilkMoth.search``, :mod:`repro.core.parallel`,
:mod:`repro.core.partitioned`, :mod:`repro.service.batch` -- routes
through this package; :mod:`repro.pipeline.driver` additionally owns
the discovery-mode dedup semantics they share.
"""

from repro.pipeline.batch import CandidateBatch
from repro.pipeline.driver import search_rows
from repro.pipeline.plan import QueryPlan, size_range
from repro.pipeline.stages import (
    CandidateSelectStage,
    CheckFilterStage,
    NNFilterStage,
    PipelineState,
    SignatureStage,
    Stage,
    VerifyStage,
)

__all__ = [
    "CandidateBatch",
    "CandidateSelectStage",
    "CheckFilterStage",
    "NNFilterStage",
    "PipelineState",
    "QueryPlan",
    "SignatureStage",
    "Stage",
    "VerifyStage",
    "search_rows",
    "size_range",
]
