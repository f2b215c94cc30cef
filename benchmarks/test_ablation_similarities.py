"""Ablation: the extra token-based similarity kinds (Dice, cosine).

Section 2.1 claims the other token-based similarity functions "can be
supported in similar ways"; we implemented Dice, cosine and overlap
with kind-specific signature bounds.  This bench runs the schema
matching workload under each kind and reports runtime, candidates and
matches.  Expected shape: looser bounds (Dice > cosine > Jaccard per
shared token) admit more candidates, so Jaccard prunes best; overlap is
excluded here because its only sound bound degenerates to a full scan
(see repro.signatures.weights) and would dominate the chart.
"""

import pytest

from repro.bench.harness import run_workload
from repro.bench.reporting import print_series
from repro.sim.functions import SimilarityKind
from repro.workloads.applications import schema_matching

KINDS = (SimilarityKind.JACCARD, SimilarityKind.COSINE, SimilarityKind.DICE)


@pytest.fixture(scope="module")
def kind_sweep(bench_sizes):
    n = max(100, bench_sizes["schema_matching"] // 2)
    results = {}
    for kind in KINDS:
        workload = schema_matching(n_sets=n, delta=0.75, similarity=kind)
        results[kind] = run_workload(workload, label=kind.value)
    return results


def test_kind_series(kind_sweep):
    kinds = list(kind_sweep)
    print_series(
        "Ablation: token similarity kinds, schema matching (delta=0.75)",
        "kind",
        [k.value for k in kinds],
        {"runtime": [kind_sweep[k].seconds for k in kinds]},
        extra={
            "initial cand": [kind_sweep[k].initial_candidates for k in kinds],
            "verified": [kind_sweep[k].verified for k in kinds],
            "matches": [kind_sweep[k].matches for k in kinds],
        },
    )


def test_looser_similarity_finds_more(kind_sweep):
    # Dice >= cosine >= Jaccard pointwise, so matches are ordered too.
    assert (
        kind_sweep[SimilarityKind.DICE].matches
        >= kind_sweep[SimilarityKind.COSINE].matches
        >= kind_sweep[SimilarityKind.JACCARD].matches
    )


def test_jaccard_prunes_at_least_as_well(kind_sweep):
    assert (
        kind_sweep[SimilarityKind.JACCARD].initial_candidates
        <= kind_sweep[SimilarityKind.DICE].initial_candidates
    )


def test_kinds_benchmark_dice(bench_sizes, benchmark):
    workload = schema_matching(
        n_sets=max(50, bench_sizes["schema_matching"] // 6),
        similarity=SimilarityKind.DICE,
    )
    result = benchmark.pedantic(
        lambda: run_workload(workload), rounds=3, iterations=1
    )
    # Symmetric self-discovery: the last reference has no set after it.
    assert result.stats.passes == len(workload.sets) - 1
