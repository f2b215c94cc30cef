"""Render the metrics and sketch registries as Prometheus text or JSON.

The Prometheus exposition follows the text format version 0.0.4:
``# HELP`` / ``# TYPE`` headers precede each family's samples, counter
families emit one sample per labelled series, quantile sketches render
as ``summary`` families (``quantile``-labelled samples plus ``_sum``
and ``_count``), and label values are escaped.  ``counter`` and
``summary`` are the only two types emitted.  Families from both
registries are emitted in one globally name-sorted stream and labelled
children are sorted within each family, so the exposition is
deterministic and golden-file-diffable.
``tools/check_metrics_format.py`` lints exactly this contract
(including the ordering) in CI.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from .metrics import Metric, MetricsRegistry, get_registry
from .sketch import (
    EXPOSED_QUANTILES,
    SketchFamily,
    SketchRegistry,
    get_sketch_registry,
)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(names, values, extra: Optional[Dict[str, str]] = None) -> str:
    pairs = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    ]
    if extra:
        pairs.extend(
            f'{name}="{_escape_label(value)}"' for name, value in extra.items()
        )
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _prometheus_family(metric: Metric) -> List[str]:
    """One counter family: one sample per labelled series."""
    lines = [
        f"# HELP {metric.name} {metric.help}",
        f"# TYPE {metric.name} counter",
    ]
    for label_values, child in metric.series():
        labels = _format_labels(metric.label_names, label_values)
        lines.append(f"{metric.name}{labels} {_format_value(child.value)}")
    return lines


def _prometheus_sketch_family(family: SketchFamily) -> List[str]:
    """One sketch family as a Prometheus ``summary``."""
    lines = [
        f"# HELP {family.name} {family.help}",
        f"# TYPE {family.name} summary",
    ]
    for label_values, sketch in family.series():
        for q in EXPOSED_QUANTILES:
            estimate = sketch.quantile(q)
            if estimate is None:
                continue
            labels = _format_labels(
                family.label_names, label_values, {"quantile": format(q, "g")}
            )
            lines.append(f"{family.name}{labels} {repr(float(estimate))}")
        plain = _format_labels(family.label_names, label_values)
        lines.append(f"{family.name}_sum{plain} {repr(float(sketch.sum))}")
        lines.append(f"{family.name}_count{plain} {sketch.count}")
    return lines


def _sorted_families(
    registry: Optional[MetricsRegistry],
    sketches: Optional[SketchRegistry],
) -> List[Tuple[str, object]]:
    """Metric and sketch families merged into one name-sorted list."""
    registry = registry if registry is not None else get_registry()
    sketches = sketches if sketches is not None else get_sketch_registry()
    entries: List[Tuple[str, object]] = [
        (metric.name, metric) for metric in registry.families()
    ]
    entries.extend((family.name, family) for family in sketches.families())
    entries.sort(key=lambda pair: pair[0])
    return entries


def to_prometheus_text(
    registry: Optional[MetricsRegistry] = None,
    sketches: Optional[SketchRegistry] = None,
) -> str:
    """Both registries in Prometheus text exposition format."""
    lines: List[str] = []
    for _, family in _sorted_families(registry, sketches):
        if isinstance(family, SketchFamily):
            lines.extend(_prometheus_sketch_family(family))
        else:
            lines.extend(_prometheus_family(family))
    return "\n".join(lines) + ("\n" if lines else "")


def to_json(
    registry: Optional[MetricsRegistry] = None,
    sketches: Optional[SketchRegistry] = None,
) -> str:
    """Both registries as one JSON document (machine-diffable)."""
    payload: Dict[str, Any] = {"schema": "silkmoth-metrics/1", "metrics": []}
    for _, family in _sorted_families(registry, sketches):
        if isinstance(family, SketchFamily):
            entry: Dict[str, Any] = {
                "name": family.name,
                "help": family.help,
                "kind": "summary",
                "label_names": list(family.label_names),
                "series": [
                    {
                        "labels": list(label_values),
                        "quantiles": {
                            format(q, "g"): sketch.quantile(q)
                            for q in EXPOSED_QUANTILES
                        },
                        "sum": sketch.sum,
                        "count": sketch.count,
                    }
                    for label_values, sketch in family.series()
                ],
            }
        else:
            entry = {
                "name": family.name,
                "help": family.help,
                "kind": "counter",
                "label_names": list(family.label_names),
                "series": [
                    {"labels": list(label_values), "value": child.value}
                    for label_values, child in family.series()
                ],
            }
        payload["metrics"].append(entry)
    return json.dumps(payload, indent=2, sort_keys=True)
