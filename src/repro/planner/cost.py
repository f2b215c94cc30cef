"""Workload statistics and the planner's cost model.

The planner's exactness decisions (:mod:`repro.planner.validity`) are
pure parameter arithmetic; its one *performance* decision -- which
signature scheme to run -- comes from the indexed workload itself.
:class:`IndexProfile` summarises the inverted index in O(distinct
tokens); :func:`choose_scheme` turns a profile into a (choice, reason)
pair the plan report can show verbatim.

The heuristics are deliberately coarse: they pick between options that
are all exact, so a wrong guess costs only speed.  The scheme
thresholds mirror what the benchmark suite measures
(``benchmarks/test_fig5_*``; ``planner.plan_s`` in ``benchmarks/e2e``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SilkMothConfig
from repro.index.inverted import InvertedIndex

#: Below this many live sets the exhaustive (optimal) signature search
#: is affordable and its candidate savings dominate; the scheme's own
#: token cap keeps references with huge vocabularies greedy anyway.
EXHAUSTIVE_MAX_SETS = 32

#: Posting-list skew (max / mean list length) beyond which trimming the
#: weighted signature by the sim-thresh budget (skyline) beats plain
#: dichotomy: very hot tokens make whole-element saturation too eager.
SKYLINE_SKEW = 8.0


@dataclass(frozen=True)
class IndexProfile:
    """O(1)-per-token summary statistics of one inverted index.

    Attributes
    ----------
    live_sets:
        Sets candidate selection can return.
    total_elements:
        Elements across live sets (verification work upper bound).
    distinct_tokens:
        Posting lists in the index.
    total_postings:
        Postings across all lists (probe work upper bound).
    mean_list_length / max_list_length:
        Posting-list length distribution; their ratio is the skew the
        scheme heuristic keys on.
    """

    live_sets: int
    total_elements: int
    distinct_tokens: int
    total_postings: int
    mean_list_length: float
    max_list_length: int

    @classmethod
    def from_index(cls, index: InvertedIndex) -> "IndexProfile":
        """Profile *index* (and its collection) without touching postings."""
        collection = index.collection
        live_sets = collection.live_count
        total_elements = sum(
            len(record) for record in collection.iter_live()
        )
        distinct_tokens = len(index)
        total_postings = index.total_postings()
        max_list = 0
        for token in index.tokens():
            max_list = max(max_list, index.list_length(token))
        mean_list = total_postings / distinct_tokens if distinct_tokens else 0.0
        return cls(
            live_sets=live_sets,
            total_elements=total_elements,
            distinct_tokens=distinct_tokens,
            total_postings=total_postings,
            mean_list_length=mean_list,
            max_list_length=max_list,
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "IndexProfile":
        """Rebuild a profile from :meth:`to_dict` output.

        The cluster coordinator receives shard profiles as JSON over
        its transports (a remote shard cannot hand back a live object);
        this is the inverse that lets it merge them.
        """
        return cls(
            live_sets=int(payload["live_sets"]),
            total_elements=int(payload["total_elements"]),
            distinct_tokens=int(payload["distinct_tokens"]),
            total_postings=int(payload["total_postings"]),
            mean_list_length=float(payload["mean_list_length"]),
            max_list_length=int(payload["max_list_length"]),
        )

    @property
    def skew(self) -> float:
        """Posting-list skew ``max / mean`` (1.0 for uniform lists)."""
        if self.mean_list_length <= 0.0:
            return 1.0
        return self.max_list_length / self.mean_list_length

    def to_dict(self) -> dict:
        """JSON-serialisable summary (plan reports, service metadata)."""
        return {
            "live_sets": self.live_sets,
            "total_elements": self.total_elements,
            "distinct_tokens": self.distinct_tokens,
            "total_postings": self.total_postings,
            "mean_list_length": round(self.mean_list_length, 3),
            "max_list_length": self.max_list_length,
            "skew": round(self.skew, 3),
        }


def merge_profiles(profiles: "list[IndexProfile]") -> IndexProfile:
    """Sum per-shard profiles into one cluster-level view.

    Sets, elements and postings add exactly.  ``distinct_tokens`` adds
    too, which over-counts tokens indexed by several shards -- the
    merged value is an upper bound, good enough for the coarse
    size/skew heuristics this module feeds (each shard still plans
    itself against its own exact profile).  ``max_list_length`` is the
    per-shard maximum, i.e. the longest *single-shard* posting list --
    the probe cost a query can actually meet, since no probe ever scans
    one token's lists across shards as one list.
    """
    if not profiles:
        raise ValueError("merge_profiles needs at least one profile")
    distinct = sum(profile.distinct_tokens for profile in profiles)
    postings = sum(profile.total_postings for profile in profiles)
    return IndexProfile(
        live_sets=sum(profile.live_sets for profile in profiles),
        total_elements=sum(profile.total_elements for profile in profiles),
        distinct_tokens=distinct,
        total_postings=postings,
        mean_list_length=postings / distinct if distinct else 0.0,
        max_list_length=max(profile.max_list_length for profile in profiles),
    )


def choose_scheme(
    config: SilkMothConfig, profile: IndexProfile | None
) -> tuple[str, str]:
    """Resolve ``scheme="auto"`` to a concrete registry name.

    Only bound-family schemes are eligible, so the automatic choice is
    exact for every ``(similarity, alpha, q)`` -- including gram
    lengths outside the paper's constraint (see
    :mod:`repro.planner.validity`).

    Returns ``(scheme_name, reason)``.
    """
    if profile is None:
        return "dichotomy", "no index statistics; dichotomy is the paper default"
    if profile.live_sets <= EXHAUSTIVE_MAX_SETS:
        return (
            "exhaustive",
            f"{profile.live_sets} live sets <= {EXHAUSTIVE_MAX_SETS}: "
            "optimal signature search is affordable",
        )
    if config.alpha > 0.0 and profile.skew >= SKYLINE_SKEW:
        return (
            "skyline",
            f"posting skew {profile.skew:.1f} >= {SKYLINE_SKEW:.0f} with "
            "alpha > 0: sim-thresh trimming avoids hot tokens",
        )
    return (
        "dichotomy",
        "dichotomy dominates on balanced workloads (paper Section 8.3)",
    )
