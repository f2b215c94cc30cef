"""Outside-in layer trace: timing wrappers around the program's boundaries.

For the traced rounds only, and in this process only, the public
callables at each layer boundary (``WRAP_POINTS``) are replaced by
wrappers that record one span per call -- name, start, end, parent,
request id -- in memory.  No file under ``src/`` is edited; spans
*inside* the program are a later issue.  A function the program imports
by name (``from x import y``) is replaced in every loaded ``repro``
module that holds it, because that is where the caller looks it up.

A span's self time is its duration minus the part its children cover.
Spans nest strictly (one thread), so the self times of all spans under
the root add up to the root's duration; :func:`summarize` checks that.
Shard-side compute of ``cluster_discover`` happens in worker processes
the coordinator cannot see into; it comes from ``shard_infos()``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from clock import percentile

# What a wrap point counts besides its calls, from (args, result).
def _wal_record_bytes(args, result) -> int:
    from repro.io.wal import encode_record

    return len(encode_record(result))


def _checkpoint_bytes(args, result) -> int:
    return os.path.getsize(args[0].checkpoint_path)


def _edit_pairs(args, result) -> int:
    return len(args[2])


#: (module, owner class or None, attribute, span name, options).
#: ``request`` marks the calls that start a request (a reference pass
#: or a service operation): spans under them share its id.
WRAP_POINTS = [
    ("repro.core.records", "SetCollection", "from_strings", "tokenize.build", {}),
    ("repro.index.inverted", "InvertedIndex", "__init__", "index.build", {}),
    ("repro.index.inverted", "InvertedIndex", "add_record", "index.add_record", {}),
    ("repro.index.inverted", "InvertedIndex", "note_removed", "index.note_removed", {}),
    ("repro.index.inverted", "InvertedIndex", "compact", "index.compact", {}),
    ("repro.planner.planner", None, "plan_query", "planner.plan", {}),
    ("repro.core.engine", "SilkMoth", "discover", "core.discover", {}),
    ("repro.pipeline.plan", "QueryPlan", "execute", "pipeline.execute", {"request": True}),
    ("repro.pipeline.stages", "SignatureStage", "run", "signatures.generate", {}),
    ("repro.pipeline.stages", "CandidateSelectStage", "run", "filters.select", {}),
    ("repro.pipeline.stages", "CheckFilterStage", "run", "filters.check", {}),
    ("repro.pipeline.stages", "NNFilterStage", "run", "filters.nn", {}),
    ("repro.pipeline.stages", "VerifyStage", "run", "matching.verify", {}),
    ("repro.matching.score", None, "matching_score", "matching.score", {}),
    ("repro.matching.reduction", None, "reduced_matching_score", "matching.reduced", {}),
    ("repro.obs.instrument", None, "observe_pass", "obs.observe_pass", {}),
    ("repro.obs.diag", None, "observe_slow_pass", "obs.observe_pass", {}),
    ("repro.service.cache", "LRUQueryCache", "get", "service.cache_probe", {}),
    ("repro.service.cache", "LRUQueryCache", "put", "service.cache_probe", {}),
    ("repro.service.service", "SilkMothService", "search", "service.search", {"request": True}),
    ("repro.service.service", "SilkMothService", "search_many", "service.search_many", {"request": True}),
    ("repro.service.service", "SilkMothService", "add_set", "service.mutation", {"request": True}),
    ("repro.service.service", "SilkMothService", "remove_set", "service.mutation", {"request": True}),
    ("repro.service.service", "SilkMothService", "update_set", "service.mutation", {"request": True}),
    ("repro.service.service", "SilkMothService", "compact", "service.compact", {}),
    ("repro.service.service", "SilkMothService", "recover", "service.recover", {"request": True}),
    ("repro.io.wal", "WriteAheadLog", "append", "io.wal_append", {"count": _wal_record_bytes}),
    ("repro.io.wal", "WriteAheadLog", "checkpoint", "io.checkpoint", {"count": _checkpoint_bytes}),
    ("repro.io.wal", None, "recover_state", "io.recover_read", {}),
    ("os", None, "fsync", "io.fsync", {}),
    ("repro.cluster.transport", "ProcessTransport", "submit", "cluster.submit", {}),
    ("repro.cluster.transport", "ProcessTransport", "collect", "cluster.collect_wait", {}),
    ("repro.cluster.coordinator", "SilkMothCluster", "discover", "cluster.discover", {}),
]

#: Methods of the compute backends (resolved at install time).
BACKEND_POINTS = [
    ("merge_distinct_postings", "backends.merge_postings", {}),
    ("edit_values", "backends.edit_values", {"count": _edit_pairs}),
    ("token_similarities", "backends.token_sims", {}),
    ("indexed_token_similarities", "backends.token_sims", {}),
    ("weight_matrix", "backends.weight_matrix", {}),
    ("assignment_score", "backends.assignment", {}),
]

#: Wrap points demoted to count-only (no span) by the overhead guard;
#: README.md, "Tracer overhead", says why each is here.
COUNT_ONLY: frozenset = frozenset()


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        #: (name, start, end, parent index or -1, request id) per span.
        self.spans: list = []
        #: Counts taken at the wrap points (bytes, pairs, bare calls).
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._request = -1
        self._request_depth = 0
        self._undo: list = []

    # -- recording ------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body (benchmark phases)."""
        index = self._open()
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, started)

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, started: float) -> None:
        ended = time.perf_counter()
        stack = self._stack
        stack.pop()
        self.spans[index] = (
            name, started, ended, stack[-1] if stack else -1, self._request
        )

    def _wrap(self, func, name: str, request=False, count=None):
        counts = self.counts
        if name in COUNT_ONLY:

            def counted(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            if request:
                if self._request_depth == 0:
                    self._request += 1
                self._request_depth += 1
            index = self._open()
            started = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index, name, started)
                if request:
                    self._request_depth -= 1
            if count is not None:
                counts[name] += count(args, result)
            return result

        return traced

    # -- installation ---------------------------------------------------
    def _replace(self, owner, attribute: str, name: str, options: dict) -> None:
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrap(raw.__func__, name, **options))
        else:
            wrapper = self._wrap(raw, name, **options)
        if inspect.ismodule(owner):
            # Replace the function wherever the program looks it up.
            holders = [owner] + [
                module
                for key, module in list(sys.modules.items())
                if key.startswith("repro") and module is not None
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is raw:
                        self._undo.append((holder, key, raw, True))
                        setattr(holder, key, wrapper)
        else:
            self._undo.append((owner, attribute, raw, attribute in vars(owner)))
            setattr(owner, attribute, wrapper)

    @contextmanager
    def installed(self):
        """Install every wrap point for the ``with`` body, then restore."""
        try:
            for module_name, cls, attribute, name, options in WRAP_POINTS:
                module = importlib.import_module(module_name)
                owner = getattr(module, cls) if cls else module
                self._replace(owner, attribute, name, options)
            # Both backends: a re-plan after compaction may switch.  Each
            # method is wrapped once, on the class that defines it.
            from repro.backends import available_backends, get_backend

            defined = {
                (next(c for c in cls.__mro__ if attribute in vars(c)), attribute): (name, options)
                for cls in (type(get_backend(b)) for b in available_backends())
                for attribute, name, options in BACKEND_POINTS
            }
            for (owner, attribute), (name, options) in defined.items():
                self._replace(owner, attribute, name, options)
            yield self
        finally:
            for owner, attribute, raw, was_own in reversed(self._undo):
                if was_own:
                    setattr(owner, attribute, raw)
                else:
                    delattr(owner, attribute)
            self._undo.clear()

    # -- output ---------------------------------------------------------
    def write_jsonl(self, path) -> None:
        """One span per line: index, name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(json.dumps({
                    "span": index, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, durations.

    ``top`` lists the durations of the spans that are direct children
    of the ``bench.run`` phase (individual requests, not replays).
    Raises when the self times do not add up to the root's duration.
    """
    spans = tracer.spans
    child_seconds = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_seconds[parent] += end - start
    summary: dict = defaultdict(
        lambda: {"calls": 0, "seconds": 0.0, "self": 0.0, "top": []}
    )
    run_index = next(
        i for i, record in enumerate(spans) if record[0] == "bench.run"
    )
    for index, (name, start, end, parent, _) in enumerate(spans):
        entry = summary[name]
        entry["calls"] += 1
        entry["seconds"] += end - start
        entry["self"] += end - start - child_seconds[index]
        if parent == run_index:
            entry["top"].append(end - start)
    root = spans[0][2] - spans[0][1]
    total_self = sum(entry["self"] for entry in summary.values())
    if abs(total_self - root) > 0.01 * root:
        raise AssertionError(
            f"self times sum to {total_self:.6f}s, traced wall is {root:.6f}s"
        )
    return summary


#: Span names whose inclusive seconds are the metric ``<name>_s``.
SECONDS_SPANS = (
    "tokenize.build", "index.build", "planner.plan",
    "signatures.generate", "filters.select", "filters.check", "filters.nn",
    "matching.verify",
    "backends.merge_postings", "backends.edit_values", "backends.token_sims",
    "backends.weight_matrix", "backends.assignment",
    "obs.observe_pass", "service.cache_probe", "service.recover",
    "index.add_record", "index.note_removed", "index.compact",
    "io.wal_append", "io.fsync", "io.checkpoint", "io.recover_read",
    "cluster.submit", "cluster.collect_wait",
)
#: Span names -> metric of their summed self seconds (glue around children).
SELF_METRICS = {
    "pipeline.execute_self_s": ("pipeline.execute",),
    "core.driver_self_s": ("core.discover",),
    "service.search_self_s": ("service.search", "service.search_many"),
    "service.mutation_self_s": ("service.mutation",),
    "cluster.coordinator_self_s": ("cluster.discover",),
}
#: Span name -> metric of its call count.
CALL_METRICS = {
    "matching.score": "matching.score_calls",
    "matching.reduced": "matching.reduced_calls",
    "io.wal_append": "io.wal_appends",
    "io.fsync": "io.fsync_calls",
    "io.checkpoint": "io.checkpoints",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict, counts: dict, counters: dict, scale: float) -> dict:
    """Every per-layer metric of one traced round, by name.

    *summary* is :func:`summarize`'s table and *counts* the tracer's
    own counts; *counters* are the program's counts for the round
    (funnel, cache, shard busy time, sizes of what was written or
    batched), *scale* turns raw seconds into calibrated seconds.
    """

    def seconds(name):
        return summary[name]["seconds"] * scale if name in summary else 0.0

    metrics = {f"{name}_s": seconds(name) for name in SECONDS_SPANS}
    for metric, names in SELF_METRICS.items():
        metrics[metric] = sum(
            summary[name]["self"] * scale for name in names if name in summary
        )
    for name, metric in CALL_METRICS.items():
        metrics[metric] = summary[name]["calls"] if name in summary else counts.get(name, 0)
    for key, value in counters.items():
        metrics[key] = value * scale if key.endswith("_s") else value
    get = counters.get
    verified = get("matching.verified", 0)
    wal_bytes = counts.get("io.wal_append", 0)
    metrics.update({
        "signatures.tokens_per_ref": _ratio(get("signatures.tokens", 0), get("pipeline.passes", 0)),
        "filters.prune_ratio": _ratio(verified, get("filters.initial_candidates", 0)),
        "backends.edit_values_pairs": counts.get("backends.edit_values", 0),
        "sim.memo_hit_ratio": _ratio(
            get("sim.memo_hits", 0), get("sim.memo_hits", 0) + get("sim.memo_misses", 0)
        ),
        "matching.useful_ratio": _ratio(get("matching.matches", 0), verified),
        "service.cache_hit_ratio": _ratio(
            get("service.cache_hits", 0),
            get("service.cache_hits", 0) + get("service.cache_misses", 0),
        ),
        "io.wal_bytes": wal_bytes,
        "io.wal_bytes_per_user_byte": _ratio(
            wal_bytes + counts.get("io.checkpoint", 0), get("io.user_bytes", 0)
        ),
        "io.recover_replay_s": seconds("service.recover") - seconds("io.recover_read"),
        "service.batch_refs_per_s": _ratio(
            get("service.batch_refs", 0), seconds("service.search_many")
        ),
    })
    for kind, name in (("query", "service.search"), ("mutation", "service.mutation")):
        top = summary[name]["top"] if name in summary else []
        for label, fraction in (("p50", 0.5), ("p95", 0.95)):
            metrics[f"service.{kind}_{label}_ms"] = (
                percentile(top, fraction) * scale * 1e3 if top else 0.0
            )
    return metrics
