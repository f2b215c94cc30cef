"""Figure 4: overall performance gains of SilkMoth's optimisations.

For each of the three applications, run the default configuration
(OPT: dichotomy signatures + check + NN filters + reduction) against
NOOPT (combined-unweighted signatures, no refinement, no reduction) and
report both runtimes.  The paper's shape: OPT is dramatically faster
for string and schema matching; inclusion dependency is small either
way but OPT still wins.
"""

import pytest

from repro.bench.harness import run_workload
from repro.bench.reporting import print_series
from repro.workloads.applications import (
    inclusion_dependency,
    schema_matching,
    string_matching,
)


@pytest.fixture(scope="module")
def fig4_results(bench_sizes):
    workloads = [
        string_matching(n_sets=bench_sizes["string_matching"]),
        schema_matching(n_sets=bench_sizes["schema_matching"]),
        inclusion_dependency(
            n_sets=bench_sizes["inclusion_dependency"],
            n_references=bench_sizes["n_references"],
        ),
    ]
    rows = {}
    for workload in workloads:
        opt = run_workload(workload, label="OPT")
        noopt_workload = workload.with_config(
            scheme="comb_unweighted",
            check_filter=False,
            nn_filter=False,
            reduction=False,
        )
        noopt = run_workload(noopt_workload, label="NOOPT")
        rows[workload.name] = (noopt, opt)
    return rows


def test_fig4_series(fig4_results):
    apps = list(fig4_results)
    print_series(
        "Figure 4: overall gains (NOOPT vs OPT)",
        "app",
        apps,
        {
            "NOOPT": [fig4_results[a][0].seconds for a in apps],
            "OPT": [fig4_results[a][1].seconds for a in apps],
        },
        extra={
            "NOOPT verified": [fig4_results[a][0].verified for a in apps],
            "OPT verified": [fig4_results[a][1].verified for a in apps],
        },
    )
    for app, (noopt, opt) in fig4_results.items():
        # Results must be identical; that's the exactness guarantee.
        assert noopt.matches == opt.matches, app
        # The optimisations must never verify MORE candidates.
        assert opt.verified <= noopt.verified, app


def test_fig4_opt_wins_where_paper_says(fig4_results):
    # The big wins in the paper are string and schema matching; check
    # the shape on candidate counts (robust, unlike wall-clock).
    for app in ("string_matching", "schema_matching"):
        noopt, opt = fig4_results[app]
        assert opt.verified < noopt.verified, app


def test_fig4_benchmark_opt(bench_sizes, benchmark):
    workload = schema_matching(n_sets=max(50, bench_sizes["schema_matching"] // 4))
    result = benchmark.pedantic(
        lambda: run_workload(workload), rounds=3, iterations=1
    )
    # Symmetric self-discovery: the last reference has no set after it.
    assert result.stats.passes == len(workload.sets) - 1
