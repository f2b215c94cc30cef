"""Named crash points for deterministic durability testing.

A *crash point* is a named location in the durability-critical code
path (WAL append, segment rotation, checkpoint) where a test harness
can make the process "die": :func:`crash_point` raises
:class:`CrashInjected` when an installed :class:`CrashPlan` (or the
``SILKMOTH_CRASH_AT`` environment variable) selects that point.  The
exception is the simulated power cut — everything written to disk
before it stays, everything after it never happens.

Two ways to arm a point:

* in-process: ``with crash_at("wal.append.after_write"): ...`` — used
  by the single-node sweep harness;
* cross-process: ``SILKMOTH_CRASH_AT=wal.append.after_write:3`` fires
  on the third hit, in whichever process inherits the variable.

This module lives in the io layer so :mod:`repro.io.wal` can call
:func:`crash_point` without importing the cluster package;
:mod:`repro.cluster.faults` re-exports the whole surface next to the
transport-level fault plans.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.settings import resolve


class CrashInjected(RuntimeError):
    """The simulated power cut raised at an armed crash point."""

    def __init__(self, point: str, hit: int):
        self.point = point
        self.hit = hit
        super().__init__(f"injected crash at {point!r} (hit {hit})")


class CrashPlan:
    """Arms one named crash point to fire on its ``after``-th hit.

    A plan fires at most once (``fired``); ``seen`` counts how many
    times its point was reached, so a harness can tell "never armed
    deep enough" apart from "the code path no longer exists".
    """

    def __init__(self, point: str, after: int = 1):
        if after < 1:
            raise ValueError(f"after must be >= 1, got {after}")
        self.point = point
        self.after = after
        self.seen = 0
        self.fired = False

    def on_point(self, name: str) -> bool:
        """Record a hit of ``name``; True when the plan should fire."""
        if self.fired or name != self.point:
            return False
        self.seen += 1
        if self.seen >= self.after:
            self.fired = True
            return True
        return False


_active_plan: "CrashPlan | None" = None
_env_hits: "dict[str, int]" = {}


def install_crash_plan(plan: "CrashPlan | None") -> None:
    """Install ``plan`` process-wide (None disarms in-process plans)."""
    global _active_plan
    _active_plan = plan


def clear_crash_plan() -> None:
    """Disarm the in-process plan and reset env-spec hit counters."""
    install_crash_plan(None)
    _env_hits.clear()


def crash_point(name: str) -> None:
    """Raise :class:`CrashInjected` when ``name`` is armed, else no-op.

    An installed :class:`CrashPlan` takes precedence over the
    ``SILKMOTH_CRASH_AT`` environment variable, which is read on every
    call (worker processes inherit it and tests flip it mid-process);
    with neither armed this is a cheap environment miss.
    """
    if _active_plan is not None:
        if _active_plan.on_point(name):
            raise CrashInjected(name, _active_plan.seen)
        return
    spec = resolve("SILKMOTH_CRASH_AT")
    if spec is None:
        return
    point, after = spec
    if point != name:
        return
    hits = _env_hits.get(name, 0) + 1
    _env_hits[name] = hits
    if hits >= after:
        raise CrashInjected(name, hits)


@contextmanager
def crash_at(point: str, after: int = 1):
    """Arm ``point`` for the duration of the block, yielding the plan.

    The yielded :class:`CrashPlan` exposes ``fired``/``seen`` so sweep
    harnesses can detect when ``after`` exceeds the number of times the
    point is reachable and stop deepening the sweep.
    """
    plan = CrashPlan(point, after=after)
    install_crash_plan(plan)
    try:
        yield plan
    finally:
        clear_crash_plan()
