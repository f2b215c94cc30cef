"""The perf-trajectory harness: pinned workloads, tracked speedups.

Every optimisation PR claims a speedup; this module turns the claim
into a *series*.  :func:`run_trajectory` executes two pinned,
deterministic workloads -- a verification-heavy edit-similarity search
and a token-based discovery -- twice each:

``baseline``
    The classic dynamic-program edit kernel
    (``SILKMOTH_EDIT_KERNEL=dp`` semantics) with the element-pair
    similarity memo disabled: the similarity hot path as it existed
    before the kernel overhaul.
``optimized``
    The bit-parallel Myers kernel with the cross-stage memo enabled --
    the shipping configuration.

The result (written as ``BENCH_<tag>.json``) records wall-clock per
mode, the speedup, the funnel counters and the memo hit rate.
Committing one file per PR turns "faster" into a reviewable
trajectory.

A third pinned workload, ``cluster_discover``, measures *scale-out*
rather than kernels: full self-discovery on the verification-heavy
edit dataset, single-node versus a :class:`repro.cluster.SilkMothCluster`
with process-transport worker shards.  Its ``workers`` map records
wall clock per worker count, so the committed file shows how the
sharded path scales on the build machine; the match counts of both
modes are recorded and must agree (the cluster is exactness-pinned to
the engine).

Data generation is fully seeded and the harness never reads the clock
outside ``perf_counter`` spans, so two runs on the same machine are
comparable; runs on different machines are comparable *within* the
file (speedups, hit rates), not across files.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.core.config import SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.filters.check import use_select_kernel
from repro.sim.functions import SimilarityKind
from repro.sim.levenshtein import use_kernel
from repro.sim.memo import DEFAULT_SIM_CACHE_SIZE

#: Output schema identifier (bump on incompatible layout changes).
SCHEMA = "silkmoth-perf-trajectory/1"

#: Workload names :func:`run_trajectory` knows how to run (the
#: ``--workload`` filter of ``tools/bench_trajectory.py`` validates
#: against this).
KNOWN_WORKLOADS = ("edit_verify", "token_discover", "cluster_discover")

#: Alphabet the synthetic element strings draw from.
_ALPHABET = "abcdefghijklmnopqrstuvwxyz "


def _perturbed(rng: random.Random, text: str, edits: int) -> str:
    """*text* with *edits* random character edits applied (seeded)."""
    chars = list(text)
    for _ in range(edits):
        op = rng.randrange(3)
        if op == 0 and chars:  # substitute
            chars[rng.randrange(len(chars))] = rng.choice(_ALPHABET)
        elif op == 1:  # insert
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(_ALPHABET))
        elif chars:  # delete
            del chars[rng.randrange(len(chars))]
    return "".join(chars)


def edit_workload(scale: float = 1.0) -> tuple[list[list[str]], SilkMothConfig]:
    """The pinned verification-heavy edit-similarity workload.

    Clusters of sets share perturbed copies of the same base strings,
    so most candidates survive the filters and the cost concentrates
    in banded-Levenshtein calls across the check / NN / verify stages
    -- the hot path the kernel overhaul targets.
    """
    rng = random.Random(20170901)
    clusters = max(2, int(24 * scale))
    sets_per_cluster = 3
    elements_per_set = 6
    sets: list[list[str]] = []
    for _ in range(clusters):
        base = [
            "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(18, 34)))
            for _ in range(elements_per_set)
        ]
        for _ in range(sets_per_cluster):
            sets.append([_perturbed(rng, text, rng.randint(0, 3)) for text in base])
    config = SilkMothConfig(
        similarity=SimilarityKind.EDS,
        delta=0.5,
        alpha=0.6,
    )
    return sets, config


def token_workload(scale: float = 1.0) -> tuple[list[list[str]], SilkMothConfig]:
    """The pinned token-similarity (Jaccard) discovery workload.

    Guards the no-regression side of the trajectory: both modes run
    the same token similarity code, so the entry is a stability guard
    against regressions from the surrounding plumbing.
    """
    rng = random.Random(20170902)
    vocabulary = [f"w{i}" for i in range(int(120 * scale) + 40)]
    clusters = max(3, int(20 * scale))
    sets = []
    for _ in range(clusters):
        base = []
        for _ in range(rng.randint(5, 8)):
            size = rng.randint(2, 6)
            base.append(rng.sample(vocabulary, size))
        # Three variants per cluster: drop/replace the odd token so the
        # pairs land near the threshold and reach verification.
        for _ in range(3):
            elements = []
            for tokens in base:
                mutated = list(tokens)
                if len(mutated) > 2 and rng.random() < 0.5:
                    mutated[rng.randrange(len(mutated))] = rng.choice(vocabulary)
                elements.append(" ".join(mutated))
            sets.append(elements)
    config = SilkMothConfig(
        similarity=SimilarityKind.JACCARD,
        delta=0.5,
    )
    return sets, config


def _time_search(
    sets: list[list[str]],
    config: SilkMothConfig,
    optimized: bool,
    repeats: int = 2,
    select_kernel: "str | None" = None,
) -> dict:
    """Run every-reference search under one mode; returns measurements.

    *optimized* selects the shipping configuration (Myers kernel,
    pair memo, packed select kernel); the baseline forces the
    pre-overhaul scalar paths: the classic DP kernel, the memo disabled
    and the per-posting ``reference`` select kernel.  *select_kernel*
    overrides the mode-implied selection kernel (the select A/B
    measures optimized mode under ``reference`` vs ``packed``).  Index
    build is excluded
    (paper Section 8.2 convention for SEARCH).  The run executes
    *repeats* times on fresh engines, keeping the best wall clock
    (standard noise suppression) and the first run's counters (they
    are deterministic across repeats).
    """
    # Both modes pin the memo size explicitly: None would defer to the
    # SILKMOTH_SIM_CACHE environment variable, letting an inherited
    # env value silently change what "optimized" means.
    mode_config = replace(
        config, sim_cache_size=DEFAULT_SIM_CACHE_SIZE if optimized else 0
    )
    collection = SetCollection.from_strings(
        sets, kind=mode_config.similarity, q=mode_config.effective_q
    )
    if select_kernel is None:
        select_kernel = "packed" if optimized else "reference"
    previous_select = use_select_kernel(select_kernel)
    previous = use_kernel("auto" if optimized else "dp")
    try:
        elapsed = float("inf")
        stats = None
        matches = 0
        for _ in range(max(1, repeats)):
            engine = SilkMoth(collection, mode_config)
            started = time.perf_counter()
            matches = 0
            for record in collection.iter_live():
                matches += len(engine.search(record, skip_set=record.set_id))
            elapsed = min(elapsed, time.perf_counter() - started)
            if stats is None:
                stats = engine.stats
    finally:
        use_kernel(previous)
        use_select_kernel(previous_select)
    lookups = stats.sim_cache_hits + stats.sim_cache_misses
    return {
        "seconds": elapsed,
        "matches": matches,
        "verified": stats.verified,
        "initial_candidates": stats.initial_candidates,
        "sim_cache_hits": stats.sim_cache_hits,
        "sim_cache_misses": stats.sim_cache_misses,
        "sim_cache_hit_rate": round(stats.sim_cache_hits / lookups, 4)
        if lookups
        else 0.0,
        "select_postings_scanned": stats.select_postings_scanned,
        "select_distinct_pairs": stats.select_distinct_pairs,
        "select_size_gate_drops": stats.select_size_gate_drops,
        "stage_seconds": {
            name: round(seconds, 6)
            for name, seconds in sorted(stats.stage_seconds.items())
        },
    }


def sharded_workload(scale: float = 1.0) -> tuple[list[list[str]], SilkMothConfig]:
    """The pinned workload behind the ``cluster_discover`` entry.

    Reuses the verification-heavy edit dataset: its cost concentrates
    in exact verification, which is precisely the work sharding spreads
    across workers, so the entry isolates scale-out rather than
    re-measuring the kernels.
    """
    return edit_workload(scale)


def _time_cluster_discover(
    sets: list[list[str]],
    config: SilkMothConfig,
    workers: int,
    repeats: int = 2,
) -> dict:
    """Time full cluster self-discovery with *workers* process shards.

    Cluster construction (worker spawn + per-shard index build) is
    excluded from the measured span, matching the single-node
    convention of excluding index build.  Keeps the best of *repeats*
    wall clocks and the first run's (deterministic) counters.
    """
    from repro.cluster import SilkMothCluster

    elapsed = float("inf")
    matches = 0
    run_stats = None
    stats = None
    per_shard_busy = []
    for _ in range(max(1, repeats)):
        cluster = SilkMothCluster.from_sets(
            sets, config, shards=workers, transport="process"
        )
        try:
            started = time.perf_counter()
            rows = cluster.discover()
            elapsed = min(elapsed, time.perf_counter() - started)
            matches = len(rows)
            if run_stats is None:
                run_stats = cluster.run_stats
                stats = cluster.stats
                # Per-shard pipeline seconds: the compute each worker
                # actually did.  Their max is the fan-out critical path
                # -- the number that must shrink with the worker count
                # even when the build machine lacks the cores to turn
                # it into wall clock.
                per_shard_busy = [
                    round(
                        sum(
                            info["stats"].get("stage_seconds", {}).values()
                        ),
                        6,
                    )
                    for info in cluster.shard_infos()
                ]
        finally:
            cluster.close()
    lookups = run_stats.sim_cache_hits + run_stats.sim_cache_misses
    return {
        "seconds": elapsed,
        "matches": matches,
        "verified": run_stats.verified,
        "initial_candidates": run_stats.initial_candidates,
        "sim_cache_hits": run_stats.sim_cache_hits,
        "sim_cache_misses": run_stats.sim_cache_misses,
        "sim_cache_hit_rate": round(run_stats.sim_cache_hits / lookups, 4)
        if lookups
        else 0.0,
        "workers": workers,
        "shards_routed": stats.shards_routed_total,
        "shards_skipped": stats.shards_skipped_total,
        "per_shard_seconds": per_shard_busy,
        "max_shard_seconds": max(per_shard_busy) if per_shard_busy else 0.0,
    }


def _time_single_discover(
    sets: list[list[str]], config: SilkMothConfig, repeats: int = 2
) -> dict:
    """Time full single-node self-discovery (the sharding baseline)."""
    collection = SetCollection.from_strings(
        sets, kind=config.similarity, q=config.effective_q
    )
    elapsed = float("inf")
    matches = 0
    stats = None
    for _ in range(max(1, repeats)):
        engine = SilkMoth(collection, config)
        started = time.perf_counter()
        rows = engine.discover()
        elapsed = min(elapsed, time.perf_counter() - started)
        matches = len(rows)
        if stats is None:
            stats = engine.stats
    lookups = stats.sim_cache_hits + stats.sim_cache_misses
    return {
        "seconds": elapsed,
        "matches": matches,
        "verified": stats.verified,
        "initial_candidates": stats.initial_candidates,
        "sim_cache_hits": stats.sim_cache_hits,
        "sim_cache_misses": stats.sim_cache_misses,
        "sim_cache_hit_rate": round(stats.sim_cache_hits / lookups, 4)
        if lookups
        else 0.0,
    }


def cluster_entry(scale: float = 1.0, worker_counts: tuple = ()) -> dict:
    """Single-node-vs-sharded measurements for the discovery workload.

    ``baseline`` is the serial engine; ``optimized`` is the cluster at
    the largest worker count; ``workers`` maps every measured worker
    count to its wall clock, so the scaling curve (not just one point)
    lands in the committed file.
    """
    import multiprocessing

    if not worker_counts:
        cpus = multiprocessing.cpu_count()
        worker_counts = tuple(sorted({1, 2, min(4, max(1, cpus))}))
    sets, config = sharded_workload(scale)
    baseline = _time_single_discover(sets, config)
    per_workers = {}
    best = None
    for workers in worker_counts:
        entry = _time_cluster_discover(sets, config, workers)
        per_workers[str(workers)] = {
            "seconds": round(entry["seconds"], 6),
            "max_shard_seconds": entry["max_shard_seconds"],
        }
        if entry["matches"] != baseline["matches"]:  # pragma: no cover
            raise AssertionError(
                "cluster discovery diverged from single node: "
                f"{entry['matches']} != {baseline['matches']} matches"
            )
        best = entry  # worker counts ascend; keep the largest
    return {
        "baseline": baseline,
        "optimized": best,
        "workers": per_workers,
        "speedup": round(baseline["seconds"] / best["seconds"], 3)
        if best["seconds"] > 0
        else float("inf"),
    }


def _workload_entry(
    sets: list[list[str]],
    config: SilkMothConfig,
    repeats: int = 2,
) -> dict:
    """Baseline-vs-optimized measurements for one workload.

    Besides the classic baseline/optimized pair, the entry carries a
    ``select_kernel`` A/B isolating the candidate-selection kernel:
    optimized mode re-run with the per-posting ``reference`` kernel
    against the shipping ``packed`` run, every other toggle identical.
    The two runs must agree on every funnel counter (the kernels are
    exactness-pinned); the A/B raises otherwise rather than committing
    a divergent measurement.
    """
    baseline = _time_search(sets, config, optimized=False, repeats=repeats)
    optimized = _time_search(sets, config, optimized=True, repeats=repeats)
    reference_select = _time_search(
        sets,
        config,
        optimized=True,
        repeats=repeats,
        select_kernel="reference",
    )
    for key in ("matches", "initial_candidates", "verified"):
        if reference_select[key] != optimized[key]:  # pragma: no cover
            raise AssertionError(
                f"select kernels diverged on {key}: "
                f"reference {reference_select[key]} != "
                f"packed {optimized[key]}"
            )
    reference_seconds = reference_select["stage_seconds"].get("select", 0.0)
    packed_seconds = optimized["stage_seconds"].get("select", 0.0)
    scanned = optimized["select_postings_scanned"]
    distinct = optimized["select_distinct_pairs"]
    speedup = (
        baseline["seconds"] / optimized["seconds"]
        if optimized["seconds"] > 0
        else float("inf")
    )
    return {
        "baseline": baseline,
        "optimized": optimized,
        "speedup": round(speedup, 3),
        "select_kernel": {
            "reference_select_seconds": reference_seconds,
            "packed_select_seconds": packed_seconds,
            "select_reduction": round(reference_seconds / packed_seconds, 3)
            if packed_seconds > 0
            else float("inf"),
            "matches": optimized["matches"],
            "initial_candidates": optimized["initial_candidates"],
            "postings_scanned": scanned,
            "distinct_pairs": distinct,
            "dedup_ratio": round(scanned / distinct, 3) if distinct else 1.0,
            "size_gate_drops": optimized["select_size_gate_drops"],
        },
    }


def run_trajectory(scale: float = 1.0, workloads: tuple = ()) -> dict:
    """Execute the pinned workloads and assemble the trajectory payload.

    *workloads* restricts which of :data:`KNOWN_WORKLOADS` run (the
    default, empty, is all of them) -- e.g. CI's bench smoke times the
    select-dominated ``edit_verify`` alone.
    """
    if not workloads:
        workloads = KNOWN_WORKLOADS
    unknown = sorted(set(workloads) - set(KNOWN_WORKLOADS))
    if unknown:
        raise ValueError(
            f"unknown workload(s) {', '.join(unknown)}; "
            f"known: {', '.join(KNOWN_WORKLOADS)}"
        )
    entries: dict = {}
    if "edit_verify" in workloads:
        entries["edit_verify"] = _workload_entry(*edit_workload(scale))
    if "token_discover" in workloads:
        # The token workload is two orders of magnitude cheaper, so it
        # takes more repeats to push best-of-N noise below the
        # regression signal it guards.
        entries["token_discover"] = _workload_entry(
            *token_workload(scale), repeats=7
        )
    if "cluster_discover" in workloads:
        entries["cluster_discover"] = cluster_entry(scale)
    import multiprocessing

    return {
        "schema": SCHEMA,
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        # Worker scaling in cluster_discover is only interpretable
        # against the core count of the machine that produced the file;
        # the git SHA and hostname pin *which* code ran *where*, so two
        # committed trajectory points are comparable (or provably not).
        "cpus": multiprocessing.cpu_count(),
        "git_sha": _git_sha(),
        "hostname": _hostname(),
        "scale": scale,
        "workloads": entries,
    }


def _git_sha() -> str:
    """The repository's HEAD commit (short), or ``"unknown"``.

    Resolved with ``git rev-parse`` relative to this file so the stamp
    works from any working directory; a missing git binary or a
    non-repository checkout (e.g. an sdist install) degrades to
    ``"unknown"`` rather than failing the benchmark.
    """
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def _hostname() -> str:
    """This machine's hostname, or ``"unknown"``."""
    import socket

    try:
        return socket.gethostname() or "unknown"
    except OSError:
        return "unknown"


def write_trajectory(path, scale: float = 1.0, workloads: tuple = ()) -> dict:
    """Run :func:`run_trajectory` and write the payload to *path* as JSON."""
    payload = run_trajectory(scale=scale, workloads=workloads)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def format_trajectory(payload: dict) -> str:
    """One-line-per-workload human summary of a trajectory payload."""
    lines = []
    for name, entry in sorted(payload["workloads"].items()):
        optimized = entry["optimized"]
        line = (
            f"{name:24s} "
            f"baseline {entry['baseline']['seconds']:.3f}s -> "
            f"optimized {optimized['seconds']:.3f}s "
            f"({entry['speedup']:.2f}x); "
            f"verified {optimized['verified']}, "
            f"memo hit rate {optimized['sim_cache_hit_rate']:.0%}"
        )
        select_ab = entry.get("select_kernel")
        if select_ab:
            line += (
                f"; select {select_ab['reference_select_seconds']:.3f}s -> "
                f"{select_ab['packed_select_seconds']:.3f}s "
                f"({select_ab['select_reduction']:.2f}x)"
            )
        workers = entry.get("workers")
        if workers:
            curve = ", ".join(
                f"{count}w {point['seconds']:.3f}s "
                f"(busiest shard {point['max_shard_seconds']:.3f}s)"
                for count, point in sorted(
                    workers.items(), key=lambda pair: int(pair[0])
                )
            )
            line += f"; workers: {curve}"
        lines.append(line)
    return "\n".join(lines)
