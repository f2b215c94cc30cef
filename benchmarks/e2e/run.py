"""End-to-end benchmark of the SilkMoth reproduction (see README.md).

The driver's contract::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as the last line of stdout, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  Without ``--workload`` every workload runs in
turn, in both modes, and every metric is printed by name with its unit.

The measuring happens in a child process whose environment is made
hermetic first: no ``SILKMOTH_*`` variable, ``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Set in the hermetic child's environment; deliberately not SILKMOTH_*.
WORKER_FLAG = "E2E_BENCH_WORKER"
#: The seed whose result digests are pinned in ``pins.json``.
DEFAULT_SEED = 11
#: Fewest rounds of a ``--trace 0`` run, however slow the box is.
MIN_ROUNDS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one round (the contract test)")
    parser.add_argument("--output", help="write the detailed JSON document here")
    parser.add_argument("--trace-out", help="write the last traced round's spans (JSONL)")
    args = parser.parse_args(argv)
    if args.trace_out and not args.workload:
        parser.error("--trace-out needs --workload")
    return args


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# One round
# ----------------------------------------------------------------------
def play_round(workload, tracer=None) -> dict:
    """setup -> run -> finish on fresh state; raw seconds and outputs."""

    def phase(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    gc.collect()
    with phase("bench.round"):
        started = time.perf_counter()
        with phase("bench.setup"):
            state = workload.setup()
        try:
            ready = time.perf_counter()
            with phase("bench.run"):
                out = workload.run(state)
            done = time.perf_counter()
            with phase("bench.finish"):
                counters = workload.finish(state, out)
                decision = workload.decision(state)
        finally:
            workload.close(state)
    return {
        "setup_raw_s": ready - started,
        "wall_raw_s": done - ready,
        "out": out,
        "counters": counters,
        "decision": decision,
        "digest": workload.digest(out),
        "failed": workload.failed_ops(out),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(workload, seconds: float, min_rounds: int):
    """Untraced rounds for *seconds*; the end-to-end metrics."""
    import clock

    deadline = time.perf_counter() + seconds
    calibrations = [clock.calibrate()]
    rounds = []
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        rounds.append(play_round(workload))
        calibrations.append(clock.calibrate())
        rounds[-1]["factor"] = clock.factor(*calibrations[-2:])
    rss = peak_rss_mb()
    setup = [r["setup_raw_s"] * r["factor"] for r in rounds]
    wall = [r["wall_raw_s"] * r["factor"] for r in rounds]
    wall_s = statistics.median(wall)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "throughput_ops_s": workload.ops / wall_s,
        "peak_rss_mb": rss,
    }
    detail = {
        "calib_ref_s": clock.CALIB_REF_S,
        "calibrated": {"setup_s": clock.quartiles(setup), "wall_s": clock.quartiles(wall)},
        "raw": {
            "setup_s": clock.quartiles(r["setup_raw_s"] for r in rounds),
            "wall_s": clock.quartiles(r["wall_raw_s"] for r in rounds),
        },
        "factors": [r["factor"] for r in rounds],
    }
    return metrics, rounds, detail


def trace(workload, seconds: float, trace_out):
    """Untraced and traced rounds in turn; the per-layer metrics."""
    import clock
    from tracer import Tracer, layer_metrics, summarize

    deadline = time.perf_counter() + seconds
    calibrations = [clock.calibrate()]
    rounds, untraced, traced, per_round = [], [], [], []
    while not per_round or time.perf_counter() < deadline:
        plain = play_round(workload)
        calibrations.append(clock.calibrate())
        untraced.append(plain["wall_raw_s"] * clock.factor(*calibrations[-2:]))
        tracer = Tracer()
        with tracer.installed():
            spanned = play_round(workload, tracer)
        calibrations.append(clock.calibrate())
        scale = clock.factor(*calibrations[-2:])
        traced.append(spanned["wall_raw_s"] * scale)
        summary = summarize(tracer)
        per_round.append(
            layer_metrics(summary, tracer.counts, spanned["counters"], scale)
        )
        rounds += [plain, spanned]
    if trace_out:
        tracer.write_jsonl(trace_out)
    metrics = {}
    unrepeatable = []
    for name in per_round[0]:
        values = [layer[name] for layer in per_round]
        if isinstance(values[0], int):  # counts are exact and must repeat
            metrics[name] = values[0]
            if len(set(values)) > 1:
                unrepeatable.append(f"count {name} did not repeat: {values}")
        else:
            metrics[name] = statistics.median(values)
    factors = [clock.CALIB_REF_S / c for c in calibrations]
    spread = clock.quartiles(factors)
    metrics.update({
        "bench.trace_overhead_ratio": statistics.median(traced) / statistics.median(untraced),
        "bench.calib_factor_median": spread["median"],
        "bench.calib_factor_spread": (spread["q3"] - spread["q1"]) / spread["median"],
    })
    detail = {
        "factors": factors,
        # The last traced round, by span name: where its wall clock went.
        "self_s": {name: entry["self"] * scale for name, entry in summary.items()},
        "calls": {name: entry["calls"] for name, entry in summary.items()},
    }
    return metrics, rounds, detail, unrepeatable


# ----------------------------------------------------------------------
# One invocation
# ----------------------------------------------------------------------
def environment() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    mounts = []
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            _, point, fstype = line.split()[:3]
            if str(HERE).startswith(point):
                mounts.append((len(point), fstype))
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "wal_fsync": True,
        "wal_filesystem": max(mounts)[1] if mounts else "unknown",
    }


def run_one(name: str, args, trace_mode: int) -> tuple[dict, dict]:
    """Run workload *name* once; the contract's result and the detail."""
    import workloads

    benchmark = spec()
    workload = workloads.make(name, args.seed, args.smoke)
    min_rounds = 1 if args.smoke else MIN_ROUNDS
    seconds = 0.0 if args.smoke else (
        args.seconds if args.seconds is not None else benchmark["run_seconds"]
    )
    if trace_mode:
        declared = benchmark["per_layer"]
        measured, rounds, detail, failures = trace(
            workload, seconds, args.trace_out
        )
    else:
        declared = benchmark["end_to_end"]
        measured, rounds, detail = measure(workload, seconds, min_rounds)
        failures = []

    # Correctness, outside every timed span, once per invocation.
    started = time.perf_counter()
    failures += workload.check(rounds[-1]["out"])
    oracle_s = time.perf_counter() - started
    digests = {r["digest"] for r in rounds}
    decisions = {json.dumps(r["decision"], sort_keys=True) for r in rounds}
    if len(digests) > 1:
        failures.append(f"outputs differ between rounds: {sorted(digests)}")
    if len(decisions) > 1:
        failures.append("planner decision differs between rounds")
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    pinned = pins["digests"].get(name)
    digest = rounds[-1]["digest"]
    if args.seed == DEFAULT_SEED and not args.smoke and digest != pinned:
        failures.append(f"result digest {digest} != pinned {pinned}")

    attempted = workload.ops * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    if failures:
        failed = attempted
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        # A layer the workload bypasses reports 0; the contract test
        # checks that every declared name is produced by some workload.
        "metrics": {
            m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
            for m in declared
        },
    }
    detail.update({
        "workload": name,
        "seed": args.seed,
        "trace": trace_mode,
        "rounds": len(rounds),
        "digest": digest,
        "decision": rounds[-1]["decision"],
        "counters": rounds[-1]["counters"],
        "oracle_s": oracle_s,
        "failures": failures,
        "result": result,
    })
    return result, detail


def worker(args) -> int:
    """The hermetic child: one workload, in one or both trace modes."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    modes = [args.trace] if args.trace is not None else [0, 1]
    details = []
    for mode in modes:
        result, detail = run_one(args.workload, args, mode)
        details.append(detail)
        for failure in detail["failures"]:
            print(f"FAILED {args.workload}: {failure}", file=sys.stderr)
        if len(modes) > 1:
            for key, metric in result["metrics"].items():
                print(f"{args.workload:18s} {key:34s} {metric['value']:>14.6g} {metric['unit']}")
        print(json.dumps(result), flush=True)
    if args.output:
        document = {"environment": environment(), "runs": details}
        Path(args.output).write_text(json.dumps(document, indent=1), encoding="utf-8")
    return 0 if all(d["result"]["correct"] for d in details) else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get(WORKER_FLAG) == "1":
        return worker(args)
    env = {k: v for k, v in os.environ.items() if not k.startswith("SILKMOTH_")}
    env.update({"PYTHONHASHSEED": "0", WORKER_FLAG: "1"})
    command = [sys.executable, str(Path(__file__).resolve()), *argv]
    if args.workload:
        return subprocess.run(command, env=env).returncode
    # Every workload in turn, each in a child of its own (peak_rss_mb is
    # per process); their --output documents are merged into one.
    exit_code, document = 0, None
    for workload in spec()["workloads"]:
        part = None
        if args.output:
            part = Path(f"{args.output}.{workload['name']}")
        child = subprocess.run(
            command + ["--workload", workload["name"]]
            + (["--output", str(part)] if part else []),
            env=env,
        )
        exit_code = max(exit_code, child.returncode)
        if part and part.is_file():
            loaded = json.loads(part.read_text(encoding="utf-8"))
            part.unlink()
            if document is None:
                document = loaded
            else:
                document["runs"] += loaded["runs"]
    if document is not None:
        Path(args.output).write_text(json.dumps(document, indent=1), encoding="utf-8")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
