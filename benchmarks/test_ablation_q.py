"""Ablation: gram length q for edit similarity (Sections 7.3 and 8.1).

The evaluation picks the maximum q allowed by ``q < alpha / (1 - alpha)``
(footnote 11).  This bench sweeps q below that ceiling on the string
matching workload and reports runtime + candidate counts, showing why
the rule exists: longer grams are rarer, so posting lists shrink and
signatures prune better -- until q violates the constraint and no valid
signature exists at all.
"""

import pytest

from repro.bench.harness import run_workload
from repro.bench.reporting import print_series
from repro.tokenize.tokenizers import max_q_for_alpha
from repro.workloads.applications import string_matching

ALPHA = 0.8


@pytest.fixture(scope="module")
def q_sweep(bench_sizes):
    n = max(60, bench_sizes["string_matching"] // 2)
    q_max = max_q_for_alpha(ALPHA)  # = 3 for alpha = 0.8
    qs = list(range(1, q_max + 1))
    results = {}
    for q in qs:
        workload = string_matching(n_sets=n, alpha=ALPHA, q=q)
        results[q] = run_workload(workload, label=f"q={q}")
    return qs, results


def test_q_series(q_sweep):
    qs, results = q_sweep
    print_series(
        f"Ablation: q sweep, string matching (alpha={ALPHA})",
        "q",
        qs,
        {"runtime": [results[q].seconds for q in qs]},
        extra={
            "initial cand": [results[q].initial_candidates for q in qs],
            "verified": [results[q].verified for q in qs],
            "matches": [results[q].matches for q in qs],
        },
    )


def test_results_independent_of_q(q_sweep):
    # q affects only pruning power, never the output (exactness).
    qs, results = q_sweep
    matches = {results[q].matches for q in qs}
    assert len(matches) == 1


def test_larger_q_prunes_better(q_sweep):
    qs, results = q_sweep
    # The paper's rule: maximum legal q gives the fewest candidates.
    assert (
        results[qs[-1]].initial_candidates
        <= results[qs[0]].initial_candidates
    )


def test_q_benchmark_max_q(bench_sizes, benchmark):
    n = max(40, bench_sizes["string_matching"] // 6)
    workload = string_matching(n_sets=n, alpha=ALPHA)
    result = benchmark.pedantic(
        lambda: run_workload(workload), rounds=3, iterations=1
    )
    # Symmetric self-discovery: the last reference has no set after it.
    assert result.stats.passes == n - 1
