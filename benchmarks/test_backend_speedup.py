"""Compute backends: pure Python vs numpy on a verify-heavy funnel.

The backend layer only pays off where the pipeline actually crunches
numbers: check-filter aggregation over wide candidate batches
(verification runs the same sparse solve on every backend).  This bench
builds a low-delta schema matching discovery (low thresholds keep many
candidates alive into verification), runs it once per available
backend, asserts the outputs are identical, and prints the speedup
series.  Skips the comparison when numpy is not installed.
"""

import time
from dataclasses import replace

import pytest

from repro.backends import available_backends
from repro.bench.reporting import print_series
from repro.core.engine import SilkMoth
from repro.workloads.applications import schema_matching


@pytest.fixture(scope="module")
def backend_sweep(bench_sizes):
    n = max(80, bench_sizes["schema_matching"] // 4)
    # delta low enough that the funnel stays verify-heavy.
    workload = schema_matching(n_sets=n).with_config(delta=0.4)
    timings = {}
    outputs = {}
    stage_seconds = {}
    for backend in available_backends():
        collection = workload.collection()
        engine = SilkMoth(collection, replace(workload.config, backend=backend))
        start = time.perf_counter()
        results = engine.discover()
        timings[backend] = time.perf_counter() - start
        outputs[backend] = [
            (r.reference_id, r.set_id, round(r.score, 9)) for r in results
        ]
        stage_seconds[backend] = dict(engine.stats.stage_seconds)
    return timings, outputs, stage_seconds


def test_backend_series(backend_sweep):
    timings, _, stage_seconds = backend_sweep
    backends = list(timings)
    print_series(
        "Backend speedup: schema matching discovery (verify-heavy)",
        "backend",
        backends,
        {"runtime": [timings[b] for b in backends]},
        extra={
            "verify s": [
                round(stage_seconds[b].get("verify", 0.0), 3) for b in backends
            ],
            "check s": [
                round(stage_seconds[b].get("check", 0.0), 3) for b in backends
            ],
        },
    )


def test_backends_identical_output(backend_sweep):
    _, outputs, _ = backend_sweep
    results = list(outputs.values())
    for other in results[1:]:
        assert other == results[0]


def test_numpy_backend_present_or_skipped(backend_sweep):
    timings, _, _ = backend_sweep
    if "numpy" not in timings:
        pytest.skip("numpy not installed; python backend only")
    assert timings["numpy"] > 0.0


def test_backend_benchmark(bench_sizes, benchmark):
    n = max(40, bench_sizes["schema_matching"] // 12)
    workload = schema_matching(n_sets=n).with_config(delta=0.4)

    def run():
        return SilkMoth(workload.collection(), workload.config).discover()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert isinstance(result, list)
