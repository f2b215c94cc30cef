"""Adaptive query planning (validity lemmas, cost model, plan reports).

``repro.planner`` is the layer between a :class:`~repro.core.config.
SilkMothConfig` and an executable :class:`~repro.pipeline.QueryPlan`:

* :mod:`repro.planner.validity` states the paper's signature-validity
  preconditions as code -- in particular the edit-similarity gram
  constraint ``q < alpha / (1 - alpha)`` and the sharper per-kind caps
  that decide when the prefix-style schemes stop being exact;
* :mod:`repro.planner.cost` profiles the inverted index and chooses a
  signature scheme per workload;
* :mod:`repro.planner.planner` combines both into one immutable
  :class:`PlannerDecision`, including the exact full-scan fallback for
  configurations whose signatures cannot certify Lemma 1;
* :mod:`repro.planner.report` renders decisions for ``silkmoth
  explain`` and ``QueryPlan.describe()``.

See ``docs/parameters.md`` for the user-facing rules.
"""

from repro.planner.cost import IndexProfile, choose_scheme
from repro.planner.planner import AUTO_SCHEME, PlannerDecision, plan_query
from repro.planner.report import format_decision, format_stage_list
from repro.planner.validity import (
    BOUND_SCHEMES,
    PREFIX_SCHEMES,
    max_prefix_valid_q,
    no_share_similarity_cap,
    prefix_scheme_valid,
    q_constraint_satisfied,
    scheme_family,
    signature_scheme_valid,
)

__all__ = [
    "AUTO_SCHEME",
    "BOUND_SCHEMES",
    "IndexProfile",
    "PREFIX_SCHEMES",
    "PlannerDecision",
    "choose_scheme",
    "format_decision",
    "format_stage_list",
    "max_prefix_valid_q",
    "no_share_similarity_cap",
    "plan_query",
    "prefix_scheme_valid",
    "q_constraint_satisfied",
    "scheme_family",
    "signature_scheme_valid",
]
