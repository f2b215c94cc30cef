"""Lightweight tracing spans with cross-process context propagation.

A *span* records one timed operation: a pipeline stage, a planner
decision, a cache probe, a snapshot read, or a cluster round-trip.
Spans form a tree via ``parent_id``; a whole query -- even one fanned
out over worker-process shards -- shares a single ``trace_id``, so the
exported JSONL replays as one coherent tree (`format_flame`).

Tracing is **off by default** (``SILKMOTH_TRACE=0``) and designed to
be zero-allocation-cheap when off: the :func:`span` context manager
returns a shared no-op singleton without creating a span object, so
instrumented hot paths cost one truthiness check.  Enabling tracing
must not perturb results -- spans only *observe*; the exactness
property suites pin bit-identical output with tracing on and off.

Cross-process propagation: the coordinator passes
:func:`current_context` (a ``(trace_id, span_id)`` pair) inside the
shard ``search`` payload; the shard wraps its work in
:func:`collect_remote`, which parents new spans under the remote
context and hands them back as dicts to be :func:`ingest`-ed into the
coordinator's buffer.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.settings import resolve

#: Bounded span buffer size; old spans are dropped, never grown without
#: limit, so a long-running service cannot leak memory through tracing.
MAX_BUFFERED_SPANS = 65536

_id_counter = itertools.count(1)


def _new_id() -> str:
    """Process-unique span/trace id: pid-tagged monotonic counter."""
    return f"{os.getpid():x}-{next(_id_counter):x}"


@dataclass
class Span:
    """One timed operation in a trace tree."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    start: float = 0.0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    pid: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used for JSONL export and shard replies."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": self.attrs,
            "start": self.start,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "pid": self.pid,
        }


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def set_attr(self, key: str, value: Any) -> None:
        """Ignore the attribute; tracing is off."""

    def __bool__(self) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """Mutable handle given to the ``with span(...)`` body."""

    __slots__ = ("_span",)

    def __init__(self, span_obj: Span) -> None:
        self._span = span_obj

    def set_attr(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute on the open span."""
        self._span.attrs[key] = value

    def __bool__(self) -> bool:
        return True


class Tracer:
    """Per-process span buffer plus the current-parent stack."""

    def __init__(self) -> None:
        self.buffer: deque = deque(maxlen=MAX_BUFFERED_SPANS)
        self._stack: List[Span] = []
        self._remote_parent: Optional[Tuple[str, str]] = None

    def current_context(self) -> Optional[Tuple[str, str]]:
        """``(trace_id, span_id)`` of the innermost open span, if any."""
        if self._stack:
            top = self._stack[-1]
            return (top.trace_id, top.span_id)
        return self._remote_parent

    def open(self, name: str, attrs: Dict[str, Any]) -> Span:
        """Open a span parented under the current context."""
        ctx = self.current_context()
        if ctx is None:
            trace_id, parent_id = _new_id(), None
        else:
            trace_id, parent_id = ctx
        span_obj = Span(
            trace_id=trace_id,
            span_id=_new_id(),
            parent_id=parent_id,
            name=name,
            attrs=attrs,
            start=time.time(),
            pid=os.getpid(),
        )
        self._stack.append(span_obj)
        return span_obj

    def close(self, span_obj: Span) -> None:
        """Close the innermost span and move it to the buffer."""
        if self._stack and self._stack[-1] is span_obj:
            self._stack.pop()
        self.buffer.append(span_obj)

    def drain(self) -> List[Dict[str, Any]]:
        """Remove and return every buffered span as a dict."""
        spans = [s if isinstance(s, dict) else s.to_dict() for s in self.buffer]
        self.buffer.clear()
        return spans


_TRACER = Tracer()
_trace_enabled: Optional[bool] = None


def trace_enabled() -> bool:
    """Whether tracing is on (``SILKMOTH_TRACE``, default off)."""
    global _trace_enabled
    if _trace_enabled is None:
        _trace_enabled = resolve("SILKMOTH_TRACE")
    return _trace_enabled


def set_trace_enabled(value: Optional[bool]) -> None:
    """Force tracing on/off, or ``None`` to re-read the environment."""
    global _trace_enabled
    _trace_enabled = value


def get_tracer() -> Tracer:
    """The process-wide tracer instance."""
    return _TRACER


class _NoopCtx:
    """Shared do-nothing context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return _NOOP_SPAN

    def __exit__(self, *exc: Any) -> bool:
        return False


_NOOP_CTX = _NoopCtx()


class _SpanCtx:
    """Context manager that opens/closes one live span."""

    __slots__ = ("_name", "_attrs", "_span", "_wall0", "_cpu0")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> _LiveSpan:
        self._span = _TRACER.open(self._name, self._attrs)
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return _LiveSpan(self._span)

    def __exit__(self, *exc: Any) -> bool:
        self._span.wall_seconds = time.perf_counter() - self._wall0
        self._span.cpu_seconds = time.process_time() - self._cpu0
        _TRACER.close(self._span)
        return False


def span(name: str, **attrs: Any) -> Any:
    """A context manager timing the ``with`` body as one span.

    When tracing is disabled this returns a shared no-op singleton --
    the instrumented hot path costs one truthiness check and no
    allocation.  When enabled, the span records wall time
    (``perf_counter``) and CPU time (``process_time``) and is parented
    under the innermost open span (or a remote shard context).
    """
    if not trace_enabled():
        return _NOOP_CTX
    return _SpanCtx(name, attrs)


def current_context() -> Optional[Tuple[str, str]]:
    """Propagatable ``(trace_id, span_id)`` context, or ``None``."""
    if not trace_enabled():
        return None
    return _TRACER.current_context()


@contextmanager
def collect_remote(ctx: Optional[Tuple[str, str]]) -> Iterator[List[Dict[str, Any]]]:
    """Shard-side: trace the body under a remote parent context.

    Yields a list that, on exit, holds the dicts of every span created
    inside the body (parented under ``ctx``), ready to ship back over
    the transport.  When ``ctx`` is ``None`` (coordinator not tracing)
    the body runs untraced and the list stays empty.
    """
    collected: List[Dict[str, Any]] = []
    if ctx is None:
        yield collected
        return
    before = _trace_enabled
    mark = len(_TRACER.buffer)
    set_trace_enabled(True)
    prev_remote = _TRACER._remote_parent
    _TRACER._remote_parent = (ctx[0], ctx[1])
    try:
        yield collected
    finally:
        _TRACER._remote_parent = prev_remote
        fresh = list(_TRACER.buffer)[mark:]
        for _ in fresh:
            _TRACER.buffer.pop()
        collected.extend(
            s if isinstance(s, dict) else s.to_dict() for s in fresh
        )
        set_trace_enabled(before)


def ingest(span_dicts: Iterable[Dict[str, Any]]) -> None:
    """Coordinator-side: append shard-produced span dicts to the buffer."""
    if not span_dicts:
        return
    for item in span_dicts:
        _TRACER.buffer.append(item)


def export_jsonl(path) -> int:
    """Drain the buffer to ``path`` as JSON Lines; returns span count."""
    spans = _TRACER.drain()
    lines = "".join(json.dumps(s, sort_keys=True) + "\n" for s in spans)
    Path(path).write_text(lines, encoding="utf-8")
    return len(spans)


#: The span keys :func:`format_flame` and :func:`format_hotspots`
#: read: key -> (the JSON types it may hold, whether it is required).
SPAN_FIELDS = {
    "trace_id": ((str,), True),
    "span_id": ((str,), True),
    "name": ((str,), True),
    "parent_id": ((str, type(None)), False),
    "attrs": ((dict,), False),
    "wall_seconds": ((int, float), False),
    "cpu_seconds": ((int, float), False),
}


def read_jsonl_objects(
    path, fields: Dict[str, Tuple[tuple, bool]]
) -> List[Dict[str, Any]]:
    """The JSON object on each non-blank line of *path*.

    *fields* maps a key to ``(accepted types, required)``.  A line that
    does not parse, is not an object, lacks a required key or holds a
    value of another type is a :class:`ValueError` naming the file and
    the line.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    objects = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}: line {line_no}"
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}: invalid JSON: {exc.msg}") from None
        if not isinstance(parsed, dict):
            raise ValueError(f"{where}: not a JSON object")
        for key, (types, required) in fields.items():
            if required and key not in parsed:
                raise ValueError(f"{where}: missing {key!r}")
            if key in parsed and not isinstance(parsed[key], types):
                names = " or ".join(kind.__name__ for kind in types)
                raise ValueError(f"{where}: {key!r} is not {names}")
        objects.append(parsed)
    return objects


def load_jsonl(path) -> List[Dict[str, Any]]:
    """Parse a JSONL trace export back into span dicts (each line
    checked against :data:`SPAN_FIELDS`)."""
    return read_jsonl_objects(path, SPAN_FIELDS)


def format_flame(spans: Iterable[Dict[str, Any]]) -> str:
    """Render span dicts as an indented text flame summary.

    Spans are grouped by ``trace_id``; within a trace, children are
    indented under their parent and siblings keep buffer order (which
    is close-time order within a process).  Orphans -- spans whose
    parent was dropped from the bounded buffer -- root their own
    subtree rather than disappearing.
    """
    spans = list(spans)
    by_id = {s["span_id"]: s for s in spans}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    roots: List[Dict[str, Any]] = []
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(s)
        else:
            roots.append(s)

    lines: List[str] = []

    def emit(node: Dict[str, Any], depth: int) -> None:
        attrs = node.get("attrs") or {}
        attr_text = (
            " " + " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            if attrs
            else ""
        )
        lines.append(
            "{indent}{name}  wall={wall:.6f}s cpu={cpu:.6f}s pid={pid}{attrs}".format(
                indent="  " * depth,
                name=node["name"],
                wall=node.get("wall_seconds", 0.0),
                cpu=node.get("cpu_seconds", 0.0),
                pid=node.get("pid", 0),
                attrs=attr_text,
            )
        )
        for child in children.get(node["span_id"], ()):
            emit(child, depth + 1)

    seen_traces = []
    for s in roots:
        if s["trace_id"] not in seen_traces:
            seen_traces.append(s["trace_id"])
    for trace_id in seen_traces:
        lines.append(f"trace {trace_id}")
        for s in roots:
            if s["trace_id"] == trace_id:
                emit(s, 1)
    return "\n".join(lines)


def format_hotspots(spans: Iterable[Dict[str, Any]], top: int = 10) -> str:
    """Aggregate span *self-time* across a trace file, hottest first.

    A span's self-time is its wall clock minus the wall clock of its
    direct children (clamped at zero: children recorded in another
    process can overlap their parent), so the ranking answers "where
    does the time actually go?" rather than re-counting every enclosing
    span.  Spans aggregate by name across every trace in the file; the
    table shows the *top* hottest names with call counts, total
    self-time, and total wall time.
    """
    spans = list(spans)
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    child_wall: Dict[str, float] = {}
    span_ids = {s["span_id"] for s in spans}
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None and parent in span_ids:
            child_wall[parent] = child_wall.get(parent, 0.0) + s.get(
                "wall_seconds", 0.0
            )
    totals: Dict[str, Dict[str, float]] = {}
    for s in spans:
        wall = s.get("wall_seconds", 0.0)
        self_time = max(0.0, wall - child_wall.get(s["span_id"], 0.0))
        entry = totals.setdefault(
            s["name"], {"count": 0, "self": 0.0, "wall": 0.0}
        )
        entry["count"] += 1
        entry["self"] += self_time
        entry["wall"] += wall
    ranked = sorted(
        totals.items(), key=lambda item: (-item[1]["self"], item[0])
    )[:top]
    if not ranked:
        return "no spans"
    name_width = max(len(name) for name, _ in ranked)
    lines = [
        f"{'span':<{name_width}}  {'calls':>7}  {'self':>12}  {'wall':>12}"
    ]
    for name, entry in ranked:
        lines.append(
            f"{name:<{name_width}}  {int(entry['count']):>7}  "
            f"{entry['self']:>11.6f}s  {entry['wall']:>11.6f}s"
        )
    return "\n".join(lines)
