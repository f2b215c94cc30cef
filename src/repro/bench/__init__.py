"""Benchmark harness utilities: run configurations, collect the funnel
counters and print paper-style series tables.  The repository's
end-to-end benchmark lives in ``benchmarks/e2e/`` (see its README)."""

from repro.bench.harness import (
    BenchResult,
    run_discovery,
    run_search,
    run_workload,
)
from repro.bench.reporting import format_series, print_series

__all__ = [
    "BenchResult",
    "format_series",
    "print_series",
    "run_discovery",
    "run_search",
    "run_workload",
]
