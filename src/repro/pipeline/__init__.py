"""The staged query pipeline (paper Figure 1 as an explicit object).

One search pass is a :class:`~repro.pipeline.plan.QueryPlan` -- built
once per (reference, config) -- executing a fixed sequence of
:class:`~repro.pipeline.stages.Stage` objects::

    signature -> candidate-select -> check -> nn-filter -> verify

Stages hand each other a columnar
:class:`~repro.pipeline.batch.CandidateBatch` (parallel arrays of set
ids, sizes, bound estimates and witnessed similarities) and run their
kernels on the :mod:`repro.backends` compute backend.  Every driver
is *schedule + runner*: :mod:`repro.pipeline.driver` owns the one
discovery schedule and its pair rules, and every pass runner -- the
engine's ``SilkMoth.run_passes``, the pool's
:func:`repro.core.parallel.run_pool`, the cluster's shard blocks --
runs these plans.
"""

from repro.pipeline.batch import CandidateBatch
from repro.pipeline.driver import run_discovery
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
    "run_discovery",
    "size_range",
]
