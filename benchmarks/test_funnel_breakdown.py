"""Candidate funnel: per-stage counts for the default configuration.

The paper reports stage effects across separate figures (5: signatures,
6: filters); this module shows the whole funnel at once for each
application under the default OPT configuration -- how many candidates
enter at the signature probe, survive each filter, reach verification,
and match.  It is the single table to look at to see where SilkMoth's
speedup comes from on each workload.
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
def funnel(bench_sizes):
    workloads = [
        string_matching(n_sets=bench_sizes["string_matching"]),
        schema_matching(n_sets=bench_sizes["schema_matching"]),
        inclusion_dependency(
            n_sets=bench_sizes["inclusion_dependency"],
            n_references=bench_sizes["n_references"],
        ),
    ]
    return {w.name: run_workload(w) for w in workloads}


def test_funnel_series(funnel):
    apps = list(funnel)
    stats = {app: funnel[app].stats for app in apps}
    print_series(
        "Candidate funnel, default configuration",
        "app",
        apps,
        {"runtime": [funnel[a].seconds for a in apps]},
        extra={
            "initial": [stats[a].initial_candidates for a in apps],
            "after check": [stats[a].after_check for a in apps],
            "after NN": [stats[a].after_nn for a in apps],
            "verified": [stats[a].verified for a in apps],
            "matches": [stats[a].matches for a in apps],
        },
    )


def test_funnel_is_monotone(funnel):
    for app, result in funnel.items():
        s = result.stats
        assert (
            s.initial_candidates >= s.after_check >= s.after_nn >= s.matches
        ), app
        assert s.verified == s.after_nn, app


def test_filters_prune_something(funnel):
    # On every workload the refinement stage must earn its keep.
    for app, result in funnel.items():
        s = result.stats
        assert s.after_nn < s.initial_candidates, app


def test_funnel_benchmark(bench_sizes, benchmark):
    workload = string_matching(
        n_sets=max(40, bench_sizes["string_matching"] // 6)
    )
    result = benchmark.pedantic(
        lambda: run_workload(workload), rounds=3, iterations=1
    )
    # Symmetric self-discovery: the last reference has no set after it.
    assert result.stats.passes == len(workload.sets) - 1
