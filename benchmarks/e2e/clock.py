"""The benchmark's clock: wall time divided by a calibration kernel.

The sandbox is a shared microVM whose speed drifts by tens of percent
within a minute (README.md, "Clock").  Every timed round is therefore
bracketed by :func:`calibrate` -- a fixed pure-Python kernel doing the
kind of work the engine does (dict updates, ``sorted``, frozenset
membership, string compares) -- and reported in *calibrated seconds*::

    calibrated = raw * CALIB_REF_S / mean(calibration before, after)

so a round that ran during a slow minute is scaled back by how slow the
kernel ran beside it.
"""

from __future__ import annotations

import math
import statistics
import time

#: What one :func:`calibrate` call takes on a quiet core of the box the
#: benchmark was defined on.  Pinned: it only fixes the unit, so that
#: calibrated seconds read like seconds; changing it rescales every
#: timing metric of every workload by the same factor.
CALIB_REF_S = 0.0450

_KEYS = [f"w{(i * 7919) % 150001:06d}" for i in range(150000)]


def calibrate() -> float:
    """Run the calibration kernel once; returns its raw seconds."""
    started = time.perf_counter()
    counts: dict[str, int] = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts)
    members = frozenset(ordered[::3])
    pivot = ordered[len(ordered) // 2]
    hits = 0
    for key in _KEYS:
        if key in members:
            hits += 1
        if key < pivot:
            hits += 1
    if hits <= 0:  # consume the result; cannot happen
        raise AssertionError("calibration kernel produced no hits")
    return time.perf_counter() - started


def factor(before: float, after: float) -> float:
    """Multiplier turning raw seconds of a bracketed round into calibrated."""
    return CALIB_REF_S / ((before + after) / 2.0)


def quartiles(values) -> dict:
    """min / q1 / median / q3 / n of *values* (inclusive quartiles)."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "min": values[0],
        "q1": q1,
        "median": statistics.median(values),
        "q3": q3,
        "n": len(values),
    }


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of *values* (0 < fraction <= 1)."""
    values = sorted(values)
    return values[max(1, math.ceil(len(values) * fraction)) - 1]
