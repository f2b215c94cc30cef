"""Workload definitions mirroring Table 3.

====================  =========== =============== ========== =====
Application           Dataset     Problem         Metric     phi
====================  =========== =============== ========== =====
string matching       DBLP-like   DISCOVERY       SIMILARITY Eds
schema matching       WEBTABLE    DISCOVERY       SIMILARITY Jac
inclusion dependency  WEBTABLE    SEARCH          CONTAIN    Jac
====================  =========== =============== ========== =====

Default thresholds follow the bold values of Table 3: delta = 0.7, and
alpha = 0.8 (string matching), 0.0 (schema matching), 0.5 (inclusion
dependency).  Sizes default to laptop-scale; pass ``n_sets`` to scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.config import Relatedness, SilkMothConfig
from repro.core.records import SetCollection
from repro.datasets.dblp import dblp_like_titles
from repro.datasets.webtable import webtable_like_columns, webtable_like_schemas
from repro.sim.functions import SimilarityKind


@dataclass(frozen=True)
class Workload:
    """A ready-to-run experiment: data plus configuration.

    Attributes
    ----------
    name:
        Application name as used in the paper's figures.
    sets:
        Raw data: one list of element strings per set.
    config:
        The default engine configuration for this application.
    n_references:
        For SEARCH-mode workloads, how many reference sets to draw.
    seed:
        Seed used both for data generation and reference sampling.
    """

    name: str
    sets: tuple = field(repr=False)
    config: SilkMothConfig
    n_references: int = 0
    seed: int = 0

    def collection(self) -> SetCollection:
        """Tokenise the raw sets per this workload's configuration."""
        return SetCollection.from_strings(
            self.sets, kind=self.config.similarity, q=self.config.effective_q
        )

    def reference_ids(self) -> list[int]:
        """Reference set ids for SEARCH mode (deterministic sample).

        Mirrors Section 8.1: references are drawn from sets with more
        than 4 distinct elements (less likely to be categorical).
        """
        if self.n_references <= 0:
            return []
        eligible = [
            i for i, elements in enumerate(self.sets) if len(set(elements)) > 4
        ]
        rng = random.Random(self.seed + 101)
        if len(eligible) <= self.n_references:
            return eligible
        return sorted(rng.sample(eligible, self.n_references))

    def with_config(self, **overrides) -> "Workload":
        """A copy with configuration fields replaced."""
        return replace(self, config=replace(self.config, **overrides))

    def planner_decision(self):
        """The planner's decision for this workload's data + config.

        Builds the collection and index (the expensive part -- the
        planning itself is microseconds, ``planner.plan_s`` in
        ``benchmarks/e2e``) and returns the
        :class:`~repro.planner.PlannerDecision` an engine over this
        workload would run with.
        """
        from repro.core.engine import SilkMoth

        return SilkMoth(self.collection(), self.config).decision


def string_matching(
    n_sets: int = 400,
    delta: float = 0.7,
    alpha: float = 0.8,
    seed: int = 17,
    **config_overrides,
) -> Workload:
    """Approximate string matching on DBLP-like titles (DISCOVERY, Eds)."""
    defaults = dict(
        metric=Relatedness.SIMILARITY,
        similarity=SimilarityKind.EDS,
        delta=delta,
        alpha=alpha,
    )
    defaults.update(config_overrides)
    config = SilkMothConfig(**defaults)
    sets = dblp_like_titles(n_sets, seed=seed)
    return Workload(
        name="string_matching", sets=tuple(map(tuple, sets)), config=config, seed=seed
    )


def schema_matching(
    n_sets: int = 400,
    delta: float = 0.7,
    alpha: float = 0.0,
    seed: int = 23,
    **config_overrides,
) -> Workload:
    """Schema matching on WEBTABLE-like schemas (DISCOVERY, Jaccard)."""
    defaults = dict(
        metric=Relatedness.SIMILARITY,
        similarity=SimilarityKind.JACCARD,
        delta=delta,
        alpha=alpha,
    )
    defaults.update(config_overrides)
    config = SilkMothConfig(**defaults)
    sets = webtable_like_schemas(n_sets, seed=seed)
    return Workload(
        name="schema_matching", sets=tuple(map(tuple, sets)), config=config, seed=seed
    )


def inclusion_dependency(
    n_sets: int = 400,
    n_references: int = 20,
    delta: float = 0.7,
    alpha: float = 0.5,
    seed: int = 29,
    **config_overrides,
) -> Workload:
    """Approximate inclusion dependency on WEBTABLE-like columns
    (SEARCH, SET-CONTAINMENT, Jaccard)."""
    defaults = dict(
        metric=Relatedness.CONTAINMENT,
        similarity=SimilarityKind.JACCARD,
        delta=delta,
        alpha=alpha,
    )
    defaults.update(config_overrides)
    config = SilkMothConfig(**defaults)
    sets = webtable_like_columns(n_sets, seed=seed)
    return Workload(
        name="inclusion_dependency",
        sets=tuple(map(tuple, sets)),
        config=config,
        n_references=n_references,
        seed=seed,
    )


#: Factory registry used by benchmarks to sweep all three applications.
WORKLOADS: dict[str, Callable[..., Workload]] = {
    "string_matching": string_matching,
    "schema_matching": schema_matching,
    "inclusion_dependency": inclusion_dependency,
}
