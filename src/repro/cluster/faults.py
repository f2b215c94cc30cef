"""Deterministic fault injection for the cluster (`repro.cluster.faults`).

The VDBMS bug study (arxiv 2506.02617) catalogues where sharded
similarity-search systems actually break: crashed workers, hung
workers, lost replies, truncated snapshots, version skew, partial
mutations.  This module turns that catalogue into an *executable*
test layer:

* :class:`FaultEvent` -- one scheduled fault, matched by kind, shard,
  replica, command and occurrence count;
* :class:`FaultPlan` -- a seeded, replayable schedule of events plus a
  log of everything that fired (the CI chaos leg uploads that log as
  an artifact);
* :class:`FaultyTransport` -- a :class:`~repro.cluster.transport
  .ShardTransport` wrapper that composes over *any* inner transport
  (inline, process, socket) and fires the plan's events at the
  protocol boundary, where real networks fail.

Because the coordinator is single-threaded, the sequence of
``submit``/``collect`` calls for a given program is deterministic, so
a seeded plan replays bit-identically -- which is what lets the chaos
suites assert *exact* oracle equality while shards are being killed.

Snapshot-level faults (``corrupt_snapshot``) do not flow through a
transport; :meth:`FaultPlan.snapshot_events` hands them to the test
harness, which applies them with the
:func:`~repro.io.persistence.truncate_snapshot` /
:func:`~repro.io.persistence.bitflip_snapshot` helpers.

Crash-point faults live one level *below* the transport: the
:mod:`repro.io.crash` machinery (re-exported here, because chaos
harnesses are this module's audience) kills a process at a named
point *inside* a WAL operation -- between intent and apply, between
checkpoint and truncate -- which is exactly the window transport
faults cannot reach.  The crash-sweep suite iterates
:data:`~repro.io.wal.WAL_CRASH_POINTS` with
:func:`~repro.io.crash.crash_at` and uses
:func:`~repro.io.wal.segment_record_offsets` to simulate torn
appends at every record boundary.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from repro.cluster.transport import (
    ShardTimeoutError,
    ShardTransport,
    ShardTransportError,
)
from repro.io.crash import (  # noqa: F401 - chaos-harness re-exports
    CrashInjected,
    CrashPlan,
    clear_crash_plan,
    crash_at,
    crash_point,
    install_crash_plan,
)
from repro.io.wal import (  # noqa: F401 - chaos-harness re-exports
    WAL_CRASH_POINTS,
    segment_record_offsets,
)

#: Fault kinds a plan may schedule, mapped to VDBMS-study bug classes:
#: worker crash, hung RPC, lost reply, incomplete persistence, and
#: tail latency (see ``docs/architecture.md`` for the full taxonomy).
FAULT_KINDS = (
    "kill_shard",
    "hang",
    "drop_reply",
    "slow_collect",
    "corrupt_snapshot",
)

#: Kinds that fire at the transport boundary (everything but snapshots).
TRANSPORT_FAULT_KINDS = tuple(
    kind for kind in FAULT_KINDS if kind != "corrupt_snapshot"
)


@dataclass
class FaultEvent:
    """One scheduled fault.

    Matching is conjunctive: the event fires on the *after*-th
    transport operation whose shard, replica and command all match
    (``None`` matches anything).  ``kill_shard`` fires at submit time,
    the collect-side kinds at collect time; ``corrupt_snapshot`` never
    matches a transport operation at all and is consumed via
    :meth:`FaultPlan.snapshot_events`.
    """

    #: One of :data:`FAULT_KINDS`.
    kind: str
    #: Logical shard index to match (``None`` = any shard).
    shard: "int | None" = None
    #: Replica index within the shard to match (``None`` = any).
    replica: "int | None" = None
    #: Only fire on this protocol command (``None`` = any command).
    command: "str | None" = None
    #: Fire on the Nth matching operation (1-based).
    after: int = 1
    #: ``slow_collect`` sleep seconds (ignored by other kinds).
    delay: float = 0.0
    #: Matching operations seen so far (internal trigger state).
    seen: int = field(default=0, repr=False, compare=False)
    #: Whether this event already fired (each event fires once).
    fired: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Validate the schedule entry at construction time."""
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.after < 1:
            raise ValueError(f"'after' is 1-based, got {self.after}")

    def matches(
        self, shard: int, replica: int, command: str
    ) -> bool:
        """Whether one transport operation matches this event's filter."""
        return (
            (self.shard is None or self.shard == shard)
            and (self.replica is None or self.replica == replica)
            and (self.command is None or self.command == command)
        )

    def to_dict(self) -> dict:
        """JSON-serialisable schedule entry (fault-plan logs)."""
        return {
            "kind": self.kind,
            "shard": self.shard,
            "replica": self.replica,
            "command": self.command,
            "after": self.after,
            "delay": self.delay,
        }


class FaultPlan:
    """A seeded, replayable schedule of faults, with a firing log.

    Parameters
    ----------
    events:
        The schedule.  Hand-written for targeted tests, or generated
        by :meth:`random` for seeded chaos sweeps.
    seed:
        Recorded for provenance in :meth:`to_dict` / the log; the
        plan itself is already fully deterministic.
    """

    def __init__(self, events=(), seed: "int | None" = None):
        self.events: "list[FaultEvent]" = list(events)
        self.seed = seed
        #: Every fault that fired, in firing order, as dicts carrying
        #: the event plus the (shard, replica, command, op) it hit.
        self.log: "list[dict]" = []
        self._op = 0

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        shards: int,
        replicas: int = 1,
        n_events: int = 4,
        kinds=TRANSPORT_FAULT_KINDS,
        commands=("search", "add", "remove"),
        max_after: int = 12,
    ) -> "FaultPlan":
        """Generate a deterministic schedule from *seed*.

        Every parameter of every event is drawn from
        ``random.Random(seed)``, so the same arguments always produce
        the same plan -- replaying a failing chaos run is just re-using
        its seed.
        """
        rng = random.Random(seed)
        events = []
        for _ in range(n_events):
            kind = rng.choice(list(kinds))
            events.append(
                FaultEvent(
                    kind=kind,
                    shard=rng.randrange(shards),
                    replica=rng.randrange(replicas) if replicas > 1 else None,
                    command=rng.choice(list(commands) + [None]),
                    after=rng.randint(1, max_after),
                    delay=round(rng.uniform(0.001, 0.01), 6)
                    if kind == "slow_collect"
                    else 0.0,
                )
            )
        return cls(events, seed=seed)

    def _fire(
        self, event: FaultEvent, shard: int, replica: int, command: str
    ) -> None:
        event.fired = True
        self.log.append(
            {
                **event.to_dict(),
                "fired_at_op": self._op,
                "hit_shard": shard,
                "hit_replica": replica,
                "hit_command": command,
            }
        )

    def on_operation(
        self, phase: str, shard: int, replica: int, command: str
    ) -> "FaultEvent | None":
        """Advance the plan one transport operation; maybe fire a fault.

        *phase* is ``"submit"`` or ``"collect"``.  ``kill_shard``
        events trigger at submit (the worker dies before handling the
        command); ``hang``, ``drop_reply`` and ``slow_collect`` at
        collect (the command ran, its reply is lost/late/slow).  At
        most one event fires per operation -- the first armed match in
        schedule order.
        """
        self._op += 1
        fired = None
        for event in self.events:
            if event.fired or event.kind == "corrupt_snapshot":
                continue
            submit_side = event.kind == "kill_shard"
            if (phase == "submit") != submit_side:
                continue
            if not event.matches(shard, replica, command):
                continue
            event.seen += 1
            if fired is None and event.seen >= event.after:
                self._fire(event, shard, replica, command)
                fired = event
        return fired

    def quiesce(self) -> int:
        """Disarm every remaining event; returns how many were armed.

        Chaos harnesses call this after the storm: with the plan
        quiesced, :meth:`SilkMothCluster.revive` rebuilds replicas that
        stay up, so the post-chaos audit (bit-identity against the
        oracle) cannot be interrupted by a still-armed event.
        """
        armed = 0
        for event in self.events:
            if not event.fired:
                event.fired = True
                armed += 1
        return armed

    def snapshot_events(self) -> "list[FaultEvent]":
        """The plan's ``corrupt_snapshot`` events (for the IO helpers)."""
        return [e for e in self.events if e.kind == "corrupt_snapshot"]

    def fired_events(self) -> "list[dict]":
        """The firing log (one dict per fired fault, in order)."""
        return list(self.log)

    def to_dict(self) -> dict:
        """JSON-serialisable plan: seed, schedule, and firing log."""
        return {
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
            "fired": self.fired_events(),
        }

    def write_log(self, path) -> None:
        """Append this plan's schedule + firing log to *path* as JSONL.

        The CI ``chaos-smoke`` leg points ``SILKMOTH_CHAOS_LOG`` at a
        file and uploads it as an artifact, so every fault the run
        injected is inspectable next to the test results.
        """
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.to_dict(), sort_keys=True) + "\n")


class FaultyTransport(ShardTransport):
    """A transport wrapper that injects a :class:`FaultPlan`'s events.

    Composes over any inner transport: the coordinator talks to this
    object exactly as it would to the inner one, and faults surface as
    the same exceptions real failures produce
    (:class:`~repro.cluster.transport.ShardTransportError` /
    :class:`~repro.cluster.transport.ShardTimeoutError`), so the
    failover machinery under test cannot tell injected faults from
    real ones.
    """

    def __init__(
        self,
        inner: ShardTransport,
        plan: FaultPlan,
        shard: int,
        replica: int = 0,
    ):
        self.inner = inner
        self.plan = plan
        self.shard = shard
        self.replica = replica
        self._dead = False
        #: Commands submitted but not collected (so collect-side events
        #: can match on the command that produced the pending reply).
        self._pending_commands: "list[str]" = []

    @property
    def host(self):
        """The inner transport's in-process host, when it has one."""
        return getattr(self.inner, "host", None)

    def _die(self, reason: str) -> None:
        self._dead = True
        self.inner.kill()
        raise ShardTransportError(reason)

    def await_ready(self) -> None:
        """Await the inner transport's construction (never faulted)."""
        self.inner.await_ready()

    def submit(self, command: str, payload: tuple) -> None:
        """Forward one submit, unless a submit-side fault fires first."""
        if self._dead:
            raise ShardTransportError(
                f"shard {self.shard} replica {self.replica} was killed by "
                "fault injection"
            )
        event = self.plan.on_operation("submit", self.shard, self.replica, command)
        if event is not None and event.kind == "kill_shard":
            self._die(
                f"injected kill_shard: shard {self.shard} replica "
                f"{self.replica} died before handling {command!r}"
            )
        self.inner.submit(command, payload)
        self._pending_commands.append(command)

    def collect(self, timeout: "float | None" = None):
        """Forward one collect, applying any collect-side fault."""
        if self._dead:
            raise ShardTransportError(
                f"shard {self.shard} replica {self.replica} was killed by "
                "fault injection"
            )
        command = (
            self._pending_commands.pop(0) if self._pending_commands else ""
        )
        event = self.plan.on_operation(
            "collect", self.shard, self.replica, command
        )
        if event is not None:
            if event.kind == "hang":
                # A hung worker looks exactly like a missed deadline;
                # the connection is desynchronised either way.
                self._dead = True
                self.inner.kill()
                raise ShardTimeoutError(
                    f"injected hang: shard {self.shard} replica "
                    f"{self.replica} never answered {command!r}"
                )
            if event.kind == "drop_reply":
                self._die(
                    f"injected drop_reply: shard {self.shard} replica "
                    f"{self.replica} lost the reply to {command!r}"
                )
            if event.kind == "slow_collect":
                time.sleep(event.delay)
        return self.inner.collect(timeout)

    def close(self) -> None:
        """Close the inner transport (idempotent, fault-free)."""
        self.inner.close()

    def kill(self) -> None:
        """Kill the inner transport and mark this wrapper dead."""
        self._dead = True
        self.inner.kill()
