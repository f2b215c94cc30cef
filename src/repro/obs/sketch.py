"""Mergeable relative-error quantile sketches (DDSketch-style).

These sketches are the one latency recorder.  A serving deployment
asks "what *is* my p99?" -- a question fixed histogram buckets cannot
answer -- and the honest answer must survive aggregation across shard
processes.  This module provides that primitive: a
:class:`QuantileSketch` with log-spaced buckets whose quantile
estimates carry a *relative* error bound of ``alpha`` (default 1%,
``SILKMOTH_SKETCH_ALPHA``), and whose merge is exact bucket-count
addition -- associative and commutative, so the coordinator can fold
shard sketches in any order and get the same answer as one process
recording everything.

The math follows DDSketch (Masson et al., VLDB 2019): with
``gamma = (1 + alpha) / (1 - alpha)``, a value ``v`` lands in bucket
``ceil(log_gamma(v))``, and the bucket's representative value
``2 * gamma^i / (gamma + 1)`` is within ``alpha * v`` of every value
the bucket can hold.  Values at or below :data:`ZERO_THRESHOLD`
(including exact zeros) share one dedicated zero bucket.

Like :mod:`repro.obs.metrics`, sketches are process-global and always
on: a :class:`SketchRegistry` keyed by family name and label values,
exported alongside the metrics registry as Prometheus ``summary``
families and merged across shard processes through the cluster's
submit/collect protocol (``sketches`` command, deduplicated by
producing ``pid`` so the inline transport never double-counts).
"""

from __future__ import annotations

import math
import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.settings import resolve

#: Values at or below this are indistinguishable from zero at any
#: useful latency resolution and share the dedicated zero bucket.
ZERO_THRESHOLD = 1e-9

#: Quantiles rendered in the Prometheus/JSON exposition and health
#: rollups.  The sketch itself answers any ``q`` in [0, 1].
EXPOSED_QUANTILES = (0.5, 0.9, 0.99, 0.999)

_sketch_alpha: Optional[float] = None


def sketch_alpha() -> float:
    """The cached process-wide sketch alpha (env read once)."""
    global _sketch_alpha
    if _sketch_alpha is None:
        _sketch_alpha = resolve("SILKMOTH_SKETCH_ALPHA")
    return _sketch_alpha


def set_sketch_alpha(value: Optional[float]) -> None:
    """Force the process alpha, or ``None`` to re-read the environment."""
    global _sketch_alpha
    if value is not None:
        value = resolve("SILKMOTH_SKETCH_ALPHA", value)
    _sketch_alpha = value


class QuantileSketch:
    """A mergeable quantile sketch with bounded relative error.

    Records non-negative values (latencies in seconds, counts, sizes)
    into log-spaced buckets.  :meth:`quantile` estimates are within
    ``alpha`` relative error of the true rank value; :meth:`merge` is
    exact (integer bucket addition), so merging shard sketches loses
    nothing beyond the per-sketch bound.
    """

    __slots__ = (
        "alpha",
        "_gamma",
        "_log_gamma",
        "buckets",
        "zero_count",
        "count",
        "sum",
        "min",
        "max",
    )

    def __init__(self, alpha: Optional[float] = None) -> None:
        self.alpha = sketch_alpha() if alpha is None else alpha
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha!r}")
        self._gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self._gamma)
        self.buckets: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        """Fold one non-negative observation into the sketch."""
        if value < 0:
            raise ValueError(f"sketch values must be >= 0, got {value!r}")
        if value <= ZERO_THRESHOLD:
            self.zero_count += 1
        else:
            index = math.ceil(math.log(value) / self._log_gamma)
            self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def _estimate(self, index: int) -> float:
        """The representative value of bucket ``index`` (mid-point in
        log space, within ``alpha`` of everything the bucket holds)."""
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile; ``None`` on an empty sketch.

        The estimate corresponds to the value at zero-based rank
        ``q * (count - 1)`` and is within ``alpha`` relative error of
        it (exact for the zero bucket, and clamped to the observed
        ``min``/``max`` so q=0 / q=1 are exact).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return None
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = q * (self.count - 1)
        cumulative = self.zero_count
        if cumulative > rank:
            return 0.0
        estimate = 0.0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative > rank:
                estimate = self._estimate(index)
                break
        if self.min is not None:
            estimate = max(estimate, self.min)
        if self.max is not None:
            estimate = min(estimate, self.max)
        return estimate

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (exact bucket addition)."""
        if not isinstance(other, QuantileSketch):
            raise TypeError(f"cannot merge {type(other).__name__} into a sketch")
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches with different alphas "
                f"({self.alpha!r} vs {other.alpha!r})"
            )
        for index, bucket_count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + bucket_count
        self.zero_count += other.zero_count
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (bucket indices become string keys)."""
        return {
            "alpha": self.alpha,
            "buckets": {str(i): c for i, c in sorted(self.buckets.items())},
            "zero_count": self.zero_count,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QuantileSketch":
        """Rebuild a sketch from its :meth:`to_dict` form."""
        sketch = cls(float(payload["alpha"]))
        sketch.buckets = {
            int(index): int(count)
            for index, count in payload.get("buckets", {}).items()
        }
        sketch.zero_count = int(payload.get("zero_count", 0))
        sketch.count = int(payload.get("count", 0))
        sketch.sum = float(payload.get("sum", 0.0))
        sketch.min = None if payload.get("min") is None else float(payload["min"])
        sketch.max = None if payload.get("max") is None else float(payload["max"])
        return sketch

    def __eq__(self, other: object) -> bool:
        """Structural equality on the exactly-merged state.

        ``sum`` is deliberately excluded: float addition is only
        approximately associative, so two sketches built by merging
        the same recordings in different orders are *equal* here even
        though their sums differ in the last ulp.
        """
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (
            self.alpha == other.alpha
            and self.buckets == other.buckets
            and self.zero_count == other.zero_count
            and self.count == other.count
            and self.min == other.min
            and self.max == other.max
        )

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(alpha={self.alpha}, count={self.count}, "
            f"min={self.min}, max={self.max})"
        )


class SketchFamily:
    """A named family of sketches keyed by label values.

    Mirrors :class:`repro.obs.metrics.Metric`: one family owns a name,
    a help string and fixed label names; each distinct label-value
    tuple gets its own :class:`QuantileSketch` child.
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Tuple[str, ...] = (),
        alpha: Optional[float] = None,
    ) -> None:
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self.alpha = sketch_alpha() if alpha is None else alpha
        self._children: Dict[Tuple[str, ...], QuantileSketch] = {}

    def child(self, **labels: object) -> QuantileSketch:
        """The sketch for this label combination (created on demand)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[n]) for n in self.label_names)
        sketch = self._children.get(key)
        if sketch is None:
            sketch = QuantileSketch(self.alpha)
            self._children[key] = sketch
        return sketch

    def record(self, value: float, **labels: object) -> None:
        """Record one observation into the labelled child sketch."""
        self.child(**labels).record(value)

    def series(self) -> List[Tuple[Tuple[str, ...], QuantileSketch]]:
        """Stable (label-values, sketch) pairs for exporters."""
        return sorted(self._children.items())

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe family payload (for transport and export)."""
        return {
            "name": self.name,
            "help": self.help,
            "label_names": list(self.label_names),
            "series": [
                {"labels": list(key), "sketch": sketch.to_dict()}
                for key, sketch in self.series()
            ],
        }


class SketchRegistry:
    """Holds every sketch family; registration is idempotent.

    The process-wide instance (:func:`get_sketch_registry`) is fed by
    :mod:`repro.obs.instrument`; the cluster coordinator builds
    throwaway instances to hold cross-shard merges.
    """

    def __init__(self) -> None:
        self._families: Dict[str, SketchFamily] = {}

    def register(
        self,
        name: str,
        help_text: str,
        label_names: Iterable[str] = (),
        alpha: Optional[float] = None,
    ) -> SketchFamily:
        """Create (or fetch the existing) family called ``name``.

        Re-registering returns the original family so long as the
        label names match; a label clash raises -- two call sites
        disagreeing about a family's shape is a bug worth failing on.
        """
        existing = self._families.get(name)
        if existing is not None:
            if existing.label_names != tuple(label_names):
                raise ValueError(
                    f"sketch family {name!r} already registered with labels "
                    f"{existing.label_names}"
                )
            return existing
        family = SketchFamily(name, help_text, tuple(label_names), alpha)
        self._families[name] = family
        return family

    def get(self, name: str) -> Optional[SketchFamily]:
        """The family called ``name``, or ``None``."""
        return self._families.get(name)

    def families(self) -> List[SketchFamily]:
        """Every registered family, sorted by name."""
        return [self._families[k] for k in sorted(self._families)]

    def to_payload(self) -> Dict[str, Any]:
        """The whole registry as one JSON-safe payload.

        Tagged with the producing ``pid``: the cluster coordinator
        deduplicates payloads by pid when merging, so inline-transport
        shards (which share the coordinator's process-global registry)
        are counted exactly once.
        """
        return {
            "schema": "silkmoth-sketches/1",
            "pid": os.getpid(),
            "families": [family.to_payload() for family in self.families()],
        }

    def merge_payload(self, payload: Dict[str, Any]) -> None:
        """Fold one :meth:`to_payload` document into this registry."""
        for entry in payload.get("families", ()):
            family = self.register(
                entry["name"],
                entry.get("help", ""),
                tuple(entry.get("label_names", ())),
            )
            for series in entry.get("series", ()):
                sketch = QuantileSketch.from_dict(series["sketch"])
                key = tuple(str(v) for v in series.get("labels", ()))
                mine = family._children.get(key)
                if mine is None:
                    family._children[key] = sketch
                else:
                    mine.merge(sketch)


def merge_payloads(payloads: Iterable[Optional[Dict[str, Any]]]) -> SketchRegistry:
    """Merge sketch payloads into a fresh registry, deduplicated by pid.

    ``None`` entries (lost shards under ``allow_lost`` fan-outs) are
    skipped; payloads from a pid already folded in are skipped too --
    under the inline transport every "shard" reports the coordinator's
    own process-global registry, which must be counted exactly once.
    """
    merged = SketchRegistry()
    seen_pids: set = set()
    for payload in payloads:
        if payload is None:
            continue
        pid = payload.get("pid")
        if pid is not None:
            if pid in seen_pids:
                continue
            seen_pids.add(pid)
        merged.merge_payload(payload)
    return merged


def quantile_summary(registry: Optional[SketchRegistry] = None) -> Dict[str, Any]:
    """Per-family quantile estimates, for health rollups and the CLI.

    Maps ``family name`` to a list of per-series entries carrying the
    label values, the observation count, and ``p50``/``p90``/``p99``/
    ``p999`` estimates (families with no recordings yield empty lists).
    """
    registry = registry if registry is not None else get_sketch_registry()
    summary: Dict[str, Any] = {}
    for family in registry.families():
        rows = []
        for key, sketch in family.series():
            if sketch.count == 0:
                continue
            row: Dict[str, Any] = {
                "labels": dict(zip(family.label_names, key)),
                "count": sketch.count,
            }
            for q in EXPOSED_QUANTILES:
                # 0.5 -> p50, 0.999 -> p999 (percentile, dot dropped).
                row["p" + format(q * 100, "g").replace(".", "")] = (
                    sketch.quantile(q)
                )
            rows.append(row)
        summary[family.name] = rows
    return summary


_SKETCHES = SketchRegistry()


def get_sketch_registry() -> SketchRegistry:
    """The process-wide sketch registry."""
    return _SKETCHES


def reset_sketch_registry() -> SketchRegistry:
    """Swap in a fresh sketch registry (test isolation) and return it."""
    global _SKETCHES
    _SKETCHES = SketchRegistry()
    return _SKETCHES
