"""Ablation: the candidate cardinality gate (Section 5, footnote 6).

The size check is a one-line filter the paper mentions only in a
footnote; this bench quantifies its contribution on the schema matching
workload (SET-SIMILARITY, where both a lower and an upper size bound
apply) by toggling ``size_filter`` with everything else fixed.
"""

import pytest

from repro.bench.harness import run_workload
from repro.bench.reporting import print_series
from repro.workloads.applications import schema_matching

THETAS = (0.7, 0.75, 0.8, 0.85)


@pytest.fixture(scope="module")
def size_sweep(bench_sizes):
    n = max(100, bench_sizes["schema_matching"] // 2)
    results = {}
    for theta in THETAS:
        on = run_workload(
            schema_matching(n_sets=n, delta=theta), label="SIZE"
        )
        off = run_workload(
            schema_matching(n_sets=n, delta=theta, size_filter=False),
            label="NOSIZE",
        )
        results[theta] = (on, off)
    return results


def test_size_filter_series(size_sweep):
    thetas = list(size_sweep)
    print_series(
        "Ablation: size filter on/off, schema matching",
        "theta",
        thetas,
        {
            "SIZE": [size_sweep[t][0].seconds for t in thetas],
            "NOSIZE": [size_sweep[t][1].seconds for t in thetas],
        },
        extra={
            "SIZE cand": [size_sweep[t][0].initial_candidates for t in thetas],
            "NOSIZE cand": [size_sweep[t][1].initial_candidates for t in thetas],
        },
    )


def test_same_matches_either_way(size_sweep):
    for theta, (on, off) in size_sweep.items():
        assert on.matches == off.matches, theta


def test_filter_never_increases_candidates(size_sweep):
    for theta, (on, off) in size_sweep.items():
        assert on.initial_candidates <= off.initial_candidates, theta


def test_size_benchmark(bench_sizes, benchmark):
    workload = schema_matching(n_sets=max(50, bench_sizes["schema_matching"] // 6))
    result = benchmark.pedantic(
        lambda: run_workload(workload), rounds=3, iterations=1
    )
    # Symmetric self-discovery: the last reference has no set after it.
    assert result.stats.passes == len(workload.sets) - 1
