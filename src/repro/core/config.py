"""Engine configuration: metrics, thresholds, and optimisation toggles."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.sim.functions import SimilarityFunction, SimilarityKind
from repro.signatures import SCHEME_NAMES
from repro.tokenize.tokenizers import max_q_for_alpha


class Relatedness(enum.Enum):
    """The two set relatedness metrics of Section 2.1."""

    SIMILARITY = "similarity"
    CONTAINMENT = "containment"


@dataclass(frozen=True)
class SilkMothConfig:
    """Everything a SilkMoth run needs besides the data.

    Attributes
    ----------
    metric:
        SET-SIMILARITY or SET-CONTAINMENT.
    similarity:
        Element similarity function kind.
    delta:
        Relatedness threshold in (0, 1].
    alpha:
        Element similarity threshold in [0, 1].
    q:
        Gram length for edit similarity.  ``None`` picks the maximum q
        allowed by ``alpha`` (the evaluation's rule, Section 8.1).
        Pinning a q outside the ``q < alpha / (1 - alpha)`` constraint
        is allowed: the query planner (:mod:`repro.planner`) keeps the
        results exact, falling back to a full scan when the configured
        signature scheme cannot certify Lemma 1 for that q (see
        ``docs/parameters.md``).
    scheme:
        Signature scheme registry name (see :mod:`repro.signatures`),
        or ``"auto"`` to let the planner's cost model choose one from
        index statistics.
    check_filter / nn_filter:
        Refinement toggles (Section 5.1 / 5.2).
    reduction:
        Use reduction-based verification where sound (Section 5.3;
        requires ``alpha == 0``).
    size_filter:
        Apply the candidate cardinality gate (Section 5, footnote 6:
        SET-SIMILARITY compares only similar-size sets; containment
        needs ``|S| >= delta |R|``).  Toggleable for ablation only --
        the gate is always sound.
    sim_cache_size:
        Capacity (in element pairs) of the cross-stage similarity memo
        (:mod:`repro.sim.memo`) used under the edit kinds.  ``None``
        defers to the ``SILKMOTH_SIM_CACHE`` environment variable and
        then the default (65536 pairs); ``0`` disables memoization.
        Affects speed only, never results.
    """

    metric: Relatedness = Relatedness.SIMILARITY
    similarity: SimilarityKind = SimilarityKind.JACCARD
    delta: float = 0.7
    alpha: float = 0.0
    q: int | None = None
    scheme: str = "dichotomy"
    check_filter: bool = True
    nn_filter: bool = True
    reduction: bool = True
    size_filter: bool = True
    sim_cache_size: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.q is not None and self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if self.scheme != "auto" and self.scheme not in SCHEME_NAMES:
            raise ValueError(
                f"scheme must be 'auto' or one of {SCHEME_NAMES}, "
                f"got {self.scheme!r}"
            )
        if self.sim_cache_size is not None and self.sim_cache_size < 0:
            raise ValueError(
                f"sim_cache_size must be >= 0 or None, got {self.sim_cache_size}"
            )

    @property
    def phi(self) -> SimilarityFunction:
        """The alpha-thresholded element similarity function."""
        return SimilarityFunction(kind=self.similarity, alpha=self.alpha)

    @property
    def effective_q(self) -> int:
        """The gram length actually used (1 for Jaccard)."""
        if self.similarity.is_token_based:
            return 1
        if self.q is not None:
            return self.q
        return max(1, max_q_for_alpha(self.alpha))

    def with_no_optimizations(self) -> "SilkMothConfig":
        """The NOOPT configuration of Figure 4: prefix-style signatures,
        no refinement, no reduction."""
        return replace(
            self,
            scheme="comb_unweighted",
            check_filter=False,
            nn_filter=False,
            reduction=False,
        )
