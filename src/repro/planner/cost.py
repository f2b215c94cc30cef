"""Workload statistics and the planner's cost model.

The planner's exactness decisions (:mod:`repro.planner.validity`) are
pure parameter arithmetic; its *performance* decisions -- which
signature scheme to run and which compute backend to run it on -- come
from the indexed workload itself.  :class:`IndexProfile` summarises the
inverted index in O(distinct tokens); the ``choose_*`` functions turn a
profile into a (choice, reason) pair the plan report can show verbatim.

The heuristics are deliberately coarse: they pick between options that
are all exact, so a wrong guess costs only speed.  The scheme
thresholds mirror what the benchmark suite measures
(``benchmarks/test_fig5_*``, ``benchmarks/test_planner_overhead.py``);
the backend cutover (:data:`NUMPY_MIN_PROBE_WORK`) sits in the gap of
the crossover table in ``docs/parameters.md``, measured with
``discover()`` pinned to each backend on dense and sparse collections
of 6 to 512 sets.

Measured costs beat fixed constants when available: point
``SILKMOTH_COST_PROFILE`` at a perf-trajectory file written by
``tools/bench_trajectory.py`` (its ``calibration`` section records
wall-clock per backend on the pinned workloads) and
:func:`choose_backend` will prefer the backend that was actually
fastest on this machine over the probe-work guess.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.backends import available_backends
from repro.core.config import SilkMothConfig
from repro.index.inverted import InvertedIndex

#: Environment variable naming a perf-trajectory JSON whose
#: ``calibration`` section supplies measured per-backend timings.
MEASURED_COSTS_ENV_VAR = "SILKMOTH_COST_PROFILE"

#: Below this many live sets the exhaustive (optimal) signature search
#: is affordable and its candidate savings dominate; the scheme's own
#: token cap keeps references with huge vocabularies greedy anyway.
EXHAUSTIVE_MAX_SETS = 32

#: Posting-list skew (max / mean list length) beyond which trimming the
#: weighted signature by the sim-thresh budget (skyline) beats plain
#: dichotomy: very hot tokens make whole-element saturation too eager.
SKYLINE_SKEW = 8.0

#: Below this much :attr:`IndexProfile.probe_work` the batches an index
#: probe hands the numpy kernels stay under the kernels' own per-call
#: gates, so every call pays array lifting and dispatch and then runs
#: the scalar path anyway; auto-selection stays with the pure-Python
#: backend.  Set count does not predict that (36 dense sets vectorise
#: 3x, 128 sparse ones lose 20 %); posting-list length times posting
#: count does.  The measured crossover lies between 30 000 and 43 000
#: (``docs/parameters.md``); the cutover takes the low end because a
#: wrong guess towards numpy costs <= 1.3x of milliseconds and a wrong
#: guess towards python 3-4x of seconds.
NUMPY_MIN_PROBE_WORK = 32_768


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

    @property
    def probe_work(self) -> float:
        """Postings scanned when every posting's own list is probed once.

        ``total_postings * mean_list_length``: how many postings there
        are to probe with, times how long a list one probe hands the
        kernels -- the self-join's select work and, through the
        candidates it surfaces, its similarity batches.  (A lower bound
        of the exact sum of squared list lengths, tight for uniform
        lists, so hot tokens only ever push a real workload further
        above the cutover than this says.)
        """
        return self.total_postings * self.mean_list_length

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


@dataclass(frozen=True)
class MeasuredCosts:
    """Per-backend wall-clock measurements from the trajectory harness.

    Attributes
    ----------
    backend_seconds:
        Backend name -> optimized wall-clock seconds on the pinned
        calibration workloads (see :mod:`repro.bench.trajectory`).
    source:
        Path of the profile file, echoed into plan reasons.
    stage_seconds:
        Optional backend name -> ``{stage: seconds}`` breakdown of the
        same measurement (the trajectory harness and the service's
        live calibration both record it), letting the planner see
        *where* a backend spends -- e.g. the candidate-selection share
        the packed select kernel targets.  Empty when the profile
        predates per-stage accounting.
    """

    backend_seconds: dict
    source: str
    stage_seconds: dict = field(default_factory=dict)

    def stage_share(self, backend: str, stage: str) -> "float | None":
        """Fraction of *backend*'s measured time spent in *stage*.

        ``None`` when the profile carries no per-stage breakdown for
        that backend (or the breakdown sums to zero).
        """
        stages = self.stage_seconds.get(backend)
        if not stages:
            return None
        total = sum(stages.values())
        if total <= 0.0:
            return None
        return stages.get(stage, 0.0) / total

    def fastest_backend(self, candidates: tuple) -> "str | None":
        """The measured-fastest backend among *candidates*.

        Requires measurements for at least two candidates -- a single
        timing carries no comparative signal -- and returns ``None``
        otherwise.
        """
        measured = [
            (self.backend_seconds[name], name)
            for name in candidates
            if name in self.backend_seconds
        ]
        if len(measured) < 2:
            return None
        return min(measured)[1]


#: Cache of parsed profiles keyed by (path, mtime_ns): planning happens
#: once per engine, but services re-plan on compaction and must not
#: re-read an unchanged file each time.
_measured_cache: dict = {}


def load_measured_costs(path: "str | None" = None) -> "MeasuredCosts | None":
    """Parse a perf-trajectory file into :class:`MeasuredCosts`.

    *path* defaults to the ``SILKMOTH_COST_PROFILE`` environment
    variable; returns ``None`` when unset.  A named-but-unreadable or
    malformed profile raises -- a deliberately configured calibration
    must not be silently ignored.
    """
    if path is None:
        path = os.environ.get(MEASURED_COSTS_ENV_VAR) or None
    if path is None:
        return None
    try:
        mtime = Path(path).stat().st_mtime_ns
    except OSError as exc:
        raise ValueError(
            f"cannot read cost profile {path!r} "
            f"(from {MEASURED_COSTS_ENV_VAR}): {exc}"
        ) from exc
    key = (path, mtime)
    cached = _measured_cache.get(key)
    if cached is not None:
        return cached
    payload = json.loads(Path(path).read_text())
    backends = payload.get("calibration", {}).get("backends", {})
    seconds = {}
    stage_seconds = {}
    for name, entry in backends.items():
        if not isinstance(entry, dict):
            continue
        value = entry.get("seconds")
        if isinstance(value, (int, float)) and value >= 0:
            seconds[name] = float(value)
        stages = entry.get("stage_seconds")
        if isinstance(stages, dict):
            parsed = {
                str(stage): float(sec)
                for stage, sec in stages.items()
                if isinstance(sec, (int, float))
                and not isinstance(sec, bool)
                and sec >= 0
            }
            if parsed:
                stage_seconds[name] = parsed
    if not seconds:
        raise ValueError(
            f"cost profile {path!r} has no calibration.backends timings"
        )
    costs = MeasuredCosts(
        backend_seconds=seconds, source=path, stage_seconds=stage_seconds
    )
    _measured_cache.clear()
    _measured_cache[key] = costs
    return costs


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


def choose_backend(
    profile: IndexProfile | None,
    measured: MeasuredCosts | None = None,
) -> tuple[str, str]:
    """Resolve an unspecified backend from measurements, then heuristics.

    Returns ``(backend_name, reason)``.  Only consulted after the
    explicit config value and the ``SILKMOTH_BACKEND`` environment
    variable (both of which win); results never depend on the backend.

    With *measured* timings covering at least two available backends
    (``SILKMOTH_COST_PROFILE``), the measured-fastest one wins
    outright.  Otherwise one size rule decides: numpy when the index's
    :attr:`~IndexProfile.probe_work` reaches
    :data:`NUMPY_MIN_PROBE_WORK`, python below it -- the fallback guess
    for machines that never ran the harness.  The numpy kernels gate
    themselves per call (``edit_batch_min_tasks``,
    ``select_min_postings``), so this rule only
    has to keep collections whose every batch would fall under those
    gates off the array path.
    """
    backends = available_backends()
    if measured is not None:
        fastest = measured.fastest_backend(backends)
        if fastest is not None:
            timings = ", ".join(
                f"{name} {measured.backend_seconds[name]:.3f}s"
                for name in backends
                if name in measured.backend_seconds
            )
            select_share = measured.stage_share(fastest, "select")
            share_note = (
                f"; select is {select_share:.0%} of its pipeline"
                if select_share is not None
                else ""
            )
            return (
                fastest,
                f"measured fastest on this machine ({timings}; "
                f"{measured.source}){share_note}",
            )
    if "numpy" not in backends:
        return "python", "numpy not installed"
    if profile is None:
        return "numpy", "numpy installed; no index statistics to size against"
    work = (
        f"probe work {profile.probe_work:,.0f} ({profile.total_postings} "
        f"postings x mean list {profile.mean_list_length:.1f})"
    )
    if profile.probe_work < NUMPY_MIN_PROBE_WORK:
        return (
            "python",
            f"{work} < {NUMPY_MIN_PROBE_WORK:,}: probes hand the kernels "
            "batches too short to repay array dispatch",
        )
    return (
        "numpy",
        f"{work} >= {NUMPY_MIN_PROBE_WORK:,}: probes hand the kernels "
        "batches long enough to vectorise",
    )
