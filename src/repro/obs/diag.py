"""Slow-query diagnostics: a bounded provenance log plus health views.

Aggregate telemetry (metrics, sketches) answers "how is the system
doing?"; this module answers the question that follows immediately in
any deployment: "*which* queries were slow, and what plan did they
run?".  Whenever a pipeline pass -- or a whole cluster fan-out --
exceeds ``SILKMOTH_SLOWLOG_MS`` (default 100 ms), a full provenance
record is captured into a bounded ring buffer: the planner decision
and its reasons, the signature scheme, every funnel counter including
the packed-selection funnel, per-stage seconds, similarity-memo hit
state, shard fan-out/failover facts, and the active trace id so the
entry can be joined against an exported span tree.

Capture is always cheap: below the threshold the hook costs one cached
float comparison, and the ring buffer (``SILKMOTH_SLOWLOG_CAPACITY``,
default 256 entries) bounds memory no matter how long the process
serves.  A negative threshold disables capture entirely; ``0`` captures
every pass (handy in tests and smoke runs).  Entries export as JSONL
(``SILKMOTH_SLOWLOG_EXPORT``, flushed by the CLI on exit) and render
through ``silkmoth slowlog``.

This module deliberately imports nothing from ``repro.service`` or
``repro.cluster`` (they import ``repro.obs`` first): the capture hooks
receive ``PassStats`` / ``ClusterPassStats`` / ``PlannerDecision``
objects duck-typed, and the health rollups live as methods on the
service and cluster themselves, with only the formatting helpers here.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from repro.core.stats import PASS_COUNTERS
from repro.settings import resolve

from .trace import current_context, read_jsonl_objects

_slowlog_ms: Optional[float] = None


def slowlog_ms() -> float:
    """The cached process-wide threshold (env read once)."""
    global _slowlog_ms
    if _slowlog_ms is None:
        _slowlog_ms = resolve("SILKMOTH_SLOWLOG_MS")
    return _slowlog_ms


def set_slowlog_ms(value: Optional[float]) -> None:
    """Force the threshold, or ``None`` to re-read the environment."""
    global _slowlog_ms
    if value is not None:
        value = resolve("SILKMOTH_SLOWLOG_MS", value)
    _slowlog_ms = value


class SlowQueryLog:
    """A bounded ring of slow-query provenance entries."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = resolve("SILKMOTH_SLOWLOG_CAPACITY", capacity)
        self._entries: deque = deque(maxlen=self.capacity)

    def add(self, entry: Dict[str, Any]) -> None:
        """Append one entry (oldest dropped at capacity)."""
        self._entries.append(entry)

    def entries(self) -> List[Dict[str, Any]]:
        """Captured entries, oldest first."""
        return list(self._entries)

    def clear(self) -> None:
        """Drop every captured entry."""
        self._entries.clear()

    def __len__(self) -> int:
        """How many entries are currently held."""
        return len(self._entries)

    def export_jsonl(self, path) -> int:
        """Drain the ring to ``path`` as JSON Lines; returns entry count."""
        entries = self.entries()
        lines = "".join(
            json.dumps(entry, sort_keys=True) + "\n" for entry in entries
        )
        Path(path).write_text(lines, encoding="utf-8")
        self._entries.clear()
        return len(entries)

    def append_jsonl(self, path) -> int:
        """Drain the ring by *appending* to ``path``; returns entry count.

        The CLI's exit-time flush uses this instead of
        :meth:`export_jsonl` so a pipeline of commands sharing one
        ``SILKMOTH_SLOWLOG_EXPORT`` file accumulates entries -- a later
        command with an empty ring must not erase an earlier one's
        capture.  The file is created even with nothing to drain, so CI
        artifact steps always find it.
        """
        entries = self.entries()
        with open(path, "a", encoding="utf-8") as handle:
            for entry in entries:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._entries.clear()
        return len(entries)


_SLOWLOG: Optional[SlowQueryLog] = None


def get_slowlog() -> SlowQueryLog:
    """The process-wide slow-query log, built on first use."""
    global _SLOWLOG
    if _SLOWLOG is None:
        _SLOWLOG = SlowQueryLog()
    return _SLOWLOG


def reset_slowlog() -> SlowQueryLog:
    """Swap in a fresh ring (test isolation, env re-read) and return it."""
    global _SLOWLOG
    _SLOWLOG = SlowQueryLog()
    return _SLOWLOG


def _base_entry(kind: str, seconds: float, ts: float) -> Dict[str, Any]:
    """Fields every slowlog entry carries (*ts*: when it ran)."""
    ctx = current_context()
    return {
        "kind": kind,
        "ts": ts,
        "seconds": seconds,
        "threshold_ms": slowlog_ms(),
        "trace_id": ctx[0] if ctx is not None else None,
    }


def _funnel_of(stats) -> Dict[str, Any]:
    """The ``PASS_COUNTERS`` of one ``PassStats``-shaped object."""
    funnel: Dict[str, Any] = {
        name: getattr(stats, name, 0) for name in PASS_COUNTERS
    }
    funnel["full_scan"] = bool(getattr(stats, "full_scan", False))
    return funnel


def observe_slow_pass(block, decision) -> None:
    """Capture each pass of a runner's block that crossed the threshold.

    *block* holds each pass's ``(PassStats, reference cardinality, wall
    time it ended)``; *decision* is the governing ``PlannerDecision``
    (or ``None``).  The pass duration is the sum of its stage seconds --
    the same number ``silkmoth_pass_latency_quantile`` records.
    """
    threshold = slowlog_ms()
    if threshold < 0:
        return
    for stats, reference_size, ended in block:
        seconds = sum(stats.stage_seconds.values())
        if seconds * 1000.0 < threshold:
            continue
        entry = _base_entry("pass", seconds, ended)
        entry.update(
            {
                "scheme": stats.scheme,
                "fallback_reason": stats.fallback_reason,
                "reference_size": reference_size,
                "planner": decision.to_dict() if decision is not None else None,
                "funnel": _funnel_of(stats),
                "stage_seconds": dict(stats.stage_seconds),
                "sim_cache": {
                    "hits": stats.sim_cache_hits,
                    "misses": stats.sim_cache_misses,
                },
            }
        )
        get_slowlog().add(entry)


def observe_slow_cluster_query(
    seconds: float,
    cluster_pass,
    failovers: int = 0,
    lost_shards: Iterable[int] = (),
) -> None:
    """Capture one cluster fan-out if it crossed the slowlog threshold.

    Called from the coordinator's cold-search path with the fan-out's
    wall seconds, its ``ClusterPassStats``, the failovers that fired
    during this query, and any shards currently lost.  The merged
    funnel plus a per-shard breakdown (scheme, seconds, matches) ride
    along, so a slow fan-out names its straggler.
    """
    threshold = slowlog_ms()
    if threshold < 0 or seconds * 1000.0 < threshold:
        return
    merged = cluster_pass.merged
    entry = _base_entry("cluster_query", seconds, time.time())
    entry.update(
        {
            "scheme": merged.scheme,
            "fallback_reason": merged.fallback_reason,
            "shards": {
                "total": cluster_pass.shards_total,
                "routed": cluster_pass.shards_routed,
                "skipped": cluster_pass.shards_skipped,
            },
            "per_shard": [
                {
                    "shard": shard,
                    "scheme": stats.scheme,
                    "seconds": sum(stats.stage_seconds.values()),
                    "matches": stats.matches,
                }
                for shard, stats in cluster_pass.per_shard
            ],
            "failovers": failovers,
            "lost_shards": sorted(lost_shards),
            "funnel": _funnel_of(merged),
            "stage_seconds": dict(merged.stage_seconds),
        }
    )
    get_slowlog().add(entry)


def load_slowlog_jsonl(path) -> List[Dict[str, Any]]:
    """Parse a JSONL slowlog export back into entry dicts (each line an
    object whose ``seconds`` and ``per_shard``, when present, are a
    number and a list)."""
    return read_jsonl_objects(
        path, {"seconds": ((int, float), False), "per_shard": ((list,), False)}
    )


def _format_seconds(seconds: Any) -> str:
    """Milliseconds with three decimals (slowlog rendering)."""
    try:
        return f"{float(seconds) * 1000.0:.3f}ms"
    except (TypeError, ValueError):
        return str(seconds)


def format_slowlog(
    entries: Iterable[Dict[str, Any]], top: Optional[int] = None
) -> str:
    """Render slowlog entries as indented text, slowest first.

    *top* truncates to the N slowest entries.  Each entry prints its
    header (kind, duration, scheme, trace id), the planner
    decision with its reasons, the funnel counters, and per-stage (or
    per-shard) seconds.
    """
    rows = sorted(
        entries, key=lambda entry: entry.get("seconds", 0.0), reverse=True
    )
    if top is not None:
        rows = rows[:top]
    lines: List[str] = []
    for entry in rows:
        trace_id = entry.get("trace_id")
        lines.append(
            f"{entry.get('kind', '?')}  "
            f"{_format_seconds(entry.get('seconds'))}  "
            f"scheme={entry.get('scheme') or '?'}"
            + (f" trace={trace_id}" if trace_id else "")
        )
        planner = entry.get("planner")
        if isinstance(planner, dict):
            lines.append(
                "  planner: "
                f"scheme={planner.get('scheme')} ({planner.get('scheme_source')}), "
                f"full_scan={planner.get('full_scan')}"
            )
            for reason in planner.get("reasons", ()):
                lines.append(f"    reason: {reason}")
        if entry.get("fallback_reason"):
            lines.append(f"  fallback: {entry['fallback_reason']}")
        funnel = entry.get("funnel")
        if isinstance(funnel, dict):
            lines.append(
                "  funnel: "
                + " ".join(
                    f"{name}={funnel[name]}"
                    for name in (*PASS_COUNTERS, "full_scan")
                    if name in funnel
                )
            )
        shards = entry.get("shards")
        if isinstance(shards, dict):
            lines.append(
                f"  shards: routed={shards.get('routed')} "
                f"skipped={shards.get('skipped')} "
                f"of {shards.get('total')}; "
                f"failovers={entry.get('failovers', 0)}"
            )
            for shard in entry.get("per_shard", ()):
                if not isinstance(shard, dict):
                    continue
                lines.append(
                    f"    shard {shard.get('shard')}: "
                    f"{_format_seconds(shard.get('seconds'))} "
                    f"scheme={shard.get('scheme')} "
                    f"matches={shard.get('matches')}"
                )
        stage_seconds = entry.get("stage_seconds")
        if isinstance(stage_seconds, dict) and stage_seconds:
            lines.append(
                "  stages: "
                + " ".join(
                    f"{name}={_format_seconds(seconds)}"
                    for name, seconds in sorted(stage_seconds.items())
                )
            )
    if not lines:
        return "slowlog is empty"
    return "\n".join(lines)


def format_health(payload: Dict[str, Any]) -> str:
    """Render a health rollup (service or cluster) as aligned text.

    Works off the ``silkmoth-health/1`` document shape produced by
    ``SilkMothService.health()`` / ``SilkMothCluster.health()``: the
    scalar summary first, then the latency quantile table, then any
    per-shard detail.
    """
    lines = [f"status:       {payload.get('status', '?')}"]
    lines.append(f"kind:         {payload.get('kind', '?')}")
    for key in ("live_sets", "generation", "shards"):
        if key in payload:
            lines.append(f"{key + ':':<14}{payload[key]}")
    cache = payload.get("cache")
    if isinstance(cache, dict):
        lines.append(
            f"cache:        hit rate {cache.get('hit_rate', 0.0):.0%} "
            f"({cache.get('queries', 0)} query(ies)); "
            f"sim memo {cache.get('sim_hit_rate', 0.0):.0%}"
        )
        lines.append(
            f"writes:       {cache.get('cache_refreshes', 0)} stale "
            "answer(s) refreshed, "
            f"{cache.get('invalidated_uncertified', 0)} uncertified dropped"
        )
    wal = payload.get("wal")
    if isinstance(wal, dict):
        lines.append(
            "wal:          "
            + (
                f"enabled, {wal.get('positions_known', 1)} position(s) known"
                if wal.get("enabled")
                else "disabled"
            )
        )
    replication = payload.get("replication")
    if isinstance(replication, dict):
        lines.append(
            f"replication:  {replication.get('healthy_replicas', 0)}/"
            f"{replication.get('total_replicas', 0)} replica(s) healthy; "
            f"failovers={replication.get('failovers', 0)}; "
            f"lost shards={replication.get('lost_shards', []) or 'none'}"
        )
    slowlog = payload.get("slowlog")
    if isinstance(slowlog, dict):
        lines.append(
            f"slowlog:      {slowlog.get('captured', 0)} entry(ies) "
            f"over {slowlog.get('threshold_ms', 0.0)}ms"
        )
    latency = payload.get("latency")
    if isinstance(latency, dict):
        for family, rows in sorted(latency.items()):
            for row in rows:
                labels = row.get("labels") or {}
                label_text = (
                    "{" + ",".join(
                        f"{k}={v}" for k, v in sorted(labels.items())
                    ) + "}"
                    if labels
                    else ""
                )
                quantiles = " ".join(
                    f"{name}={_format_seconds(row[name])}"
                    for name in ("p50", "p90", "p99", "p999")
                    if row.get(name) is not None
                )
                lines.append(
                    f"latency:      {family}{label_text} "
                    f"n={row.get('count', 0)} {quantiles}"
                )
    return "\n".join(lines)
