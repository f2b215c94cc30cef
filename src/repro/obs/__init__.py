"""Unified telemetry: spans, metrics, sketches and diagnostics.

``repro.obs`` is the cross-cutting observability layer the staged
pipeline, planner, service and cluster all report into:

* :mod:`repro.obs.trace` -- per-query span trees (``SILKMOTH_TRACE``),
  propagated across shard processes, exported as JSONL and rendered as
  text flame summaries and self-time hotspot tables;
* :mod:`repro.obs.metrics` -- the process-wide registry of labelled
  counters (always on);
* :mod:`repro.obs.sketch` -- mergeable relative-error quantile
  sketches (DDSketch-style), the one latency recorder, folded across
  shard processes and exposed as Prometheus ``summary`` families;
* :mod:`repro.obs.diag` -- the bounded slow-query log with full plan
  provenance (``SILKMOTH_SLOWLOG_MS``) and the health-rollup
  renderers behind ``silkmoth slowlog`` / ``silkmoth health``;
* :mod:`repro.obs.export` -- Prometheus text-format and JSON renderers
  over both registries (``silkmoth stats --metrics``);
* :mod:`repro.obs.instrument` -- the bridge folding the existing
  ``PassStats``/``ServiceStats``/``ClusterPassStats`` hot paths into
  registry updates.
"""

from .diag import (
    SlowQueryLog,
    format_health,
    format_slowlog,
    get_slowlog,
    load_slowlog_jsonl,
    observe_slow_cluster_query,
    observe_slow_pass,
    reset_slowlog,
    set_slowlog_ms,
    slowlog_ms,
)
from .export import to_json, to_prometheus_text
from .metrics import MetricsRegistry, get_registry, reset_registry
from .sketch import (
    QuantileSketch,
    SketchFamily,
    SketchRegistry,
    get_sketch_registry,
    merge_payloads,
    quantile_summary,
    reset_sketch_registry,
    set_sketch_alpha,
    sketch_alpha,
)
from .trace import (
    Span,
    collect_remote,
    current_context,
    export_jsonl,
    format_flame,
    format_hotspots,
    get_tracer,
    ingest,
    load_jsonl,
    set_trace_enabled,
    span,
    trace_enabled,
)

__all__ = [
    "MetricsRegistry",
    "QuantileSketch",
    "SketchFamily",
    "SketchRegistry",
    "SlowQueryLog",
    "Span",
    "collect_remote",
    "current_context",
    "export_jsonl",
    "format_flame",
    "format_health",
    "format_hotspots",
    "format_slowlog",
    "get_registry",
    "get_sketch_registry",
    "get_slowlog",
    "get_tracer",
    "ingest",
    "load_jsonl",
    "load_slowlog_jsonl",
    "merge_payloads",
    "observe_slow_cluster_query",
    "observe_slow_pass",
    "quantile_summary",
    "reset_registry",
    "reset_sketch_registry",
    "reset_slowlog",
    "set_sketch_alpha",
    "set_slowlog_ms",
    "set_trace_enabled",
    "sketch_alpha",
    "slowlog_ms",
    "span",
    "to_json",
    "to_prometheus_text",
    "trace_enabled",
]
