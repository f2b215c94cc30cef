"""Crash-point sweep: recovery always lands on pre- or post-state.

The headline durability claim, in executable form.  A crash is
simulated at every named point in the WAL code path
(:data:`~repro.io.wal.WAL_CRASH_POINTS`, armed via
:func:`~repro.cluster.faults.crash_at`) and at every record
boundary of the log itself (simulated torn appends).  Whatever the
crash interrupts, :meth:`SilkMothService.recover` must land
bit-identical -- by :meth:`~repro.service.SilkMothService
.state_fingerprint` -- to the single-node oracle *before* or *after*
the interrupted mutation, never a third state.  Programs are
Hypothesis-generated.

When ``SILKMOTH_RECOVERY_REPORT`` names a file, every recovery the
sweep performs appends one JSON line describing the crash and the
outcome; the CI ``crash-smoke`` leg uploads it as an artifact.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.faults import (
    WAL_CRASH_POINTS,
    CrashInjected,
    crash_at,
    segment_record_offsets,
)
from repro.core.config import SilkMothConfig
from repro.io.wal import list_segments
from repro.service import SilkMothService
from strategies import token_sets

#: Recovery-report artifact path (the CI crash-smoke leg sets this).
REPORT_ENV_VAR = "SILKMOTH_RECOVERY_REPORT"

_SETTINGS = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CONFIG = SilkMothConfig(delta=0.3)

_programs = st.lists(
    st.one_of(
        st.tuples(st.just("add"), token_sets(min_elements=1)),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=30)),
        st.tuples(
            st.just("update"),
            st.integers(min_value=0, max_value=30),
            token_sets(min_elements=1),
        ),
    ),
    min_size=1,
    max_size=6,
)


def _report_recovery(entry: dict) -> None:
    """Append one recovery outcome to the JSONL artifact, when enabled."""
    path = os.environ.get(REPORT_ENV_VAR)
    if path:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")


def _apply_step(service, step) -> None:
    """Apply one program step; no-op when its target id is not live.

    Target selection (modulo the live-id list) is a pure function of
    the service state, so the crashing service and the oracle resolve
    every step identically as long as their states agree -- which is
    exactly what the sweep is proving.
    """
    if step[0] == "add":
        service.add_set(step[1])
        return
    live = service.live_set_ids()
    if not live:
        return
    target = live[step[1] % len(live)]
    if step[0] == "remove":
        service.remove_set(target)
    else:
        service.update_set(target, step[2])


def _oracle_fingerprints(config, program) -> "list[str]":
    """Fingerprint after each program prefix: states[i] = i steps done."""
    oracle = SilkMothService(config)
    states = [oracle.state_fingerprint()]
    for step in program:
        _apply_step(oracle, step)
        states.append(oracle.state_fingerprint())
    return states


@given(program=_programs)
@_SETTINGS
def test_crash_point_sweep_recovers_pre_or_post_state(program):
    """Every (crash point, hit count) lands on an oracle prefix state.

    For each named crash point, the hit count is deepened until the
    program completes without firing; every fired crash abandons the
    service exactly where the power cut left the disk, recovers, and
    asserts the recovered fingerprint is the oracle's state either
    before or after the interrupted step -- never anything else.
    """
    config = replace(CONFIG, scheme="dichotomy")
    states = _oracle_fingerprints(config, program)
    with tempfile.TemporaryDirectory() as root:
        for point in WAL_CRASH_POINTS:
            for after in range(1, len(program) + 3):
                wal_dir = Path(root) / f"{point.replace('.', '-')}-{after}"
                service = None
                crashed_step = None
                with crash_at(point, after=after) as plan:
                    try:
                        service = SilkMothService(
                            config, wal_dir=wal_dir, wal_fsync=False
                        )
                        for index, step in enumerate(program):
                            crashed_step = index
                            _apply_step(service, step)
                            crashed_step = None
                    except CrashInjected:
                        pass  # the simulated power cut: disk stays as-is
                if service is not None:
                    # Process death closes descriptors too; the disk
                    # state the recovery sees is identical either way.
                    service.close()
                if not plan.fired:
                    # The point is not reachable `after` times by this
                    # program; deeper hit counts cannot fire either.
                    break
                recovered = SilkMothService.recover(
                    wal_dir, config, wal_fsync=False
                )
                fingerprint = recovered.state_fingerprint()
                if crashed_step is None:
                    # Crash during construction (the base checkpoint):
                    # nothing was mutated yet.
                    allowed = {states[0]}
                else:
                    allowed = {states[crashed_step], states[crashed_step + 1]}
                _report_recovery(
                    {
                        "harness": "crash_point",
                        "point": point,
                        "after": after,
                        "crashed_step": crashed_step,
                        "replayed": recovered.wal_recovery.replayed,
                        "torn_tail": recovered.wal_recovery.torn_tail,
                        "outcome": "pre"
                        if fingerprint == states[crashed_step or 0]
                        else "post",
                    }
                )
                assert fingerprint in allowed, (
                    f"crash at {point} (hit {after}) recovered to a third "
                    f"state: {fingerprint} not in {allowed}"
                )
                recovered.close()


@given(program=_programs)
@_SETTINGS
def test_torn_append_sweep_recovers_prefix_state(program):
    """Truncating the log at/inside every record boundary stays exact.

    The log is cut at every byte offset that matters -- each record
    boundary, and mid-record between boundaries -- and recovery from
    the truncated copy must equal the oracle state after exactly the
    surviving complete records; a mid-record cut drops only the torn
    record.
    """
    config = replace(CONFIG, scheme="dichotomy")
    states = _oracle_fingerprints(config, program)
    with tempfile.TemporaryDirectory() as root:
        wal_dir = Path(root) / "wal"
        # compact_dead_fraction=1.0 suppresses auto-checkpointing, so
        # the whole program stays in the log as one replayable tail.
        service = SilkMothService(
            config,
            wal_dir=wal_dir,
            wal_fsync=False,
            compact_dead_fraction=1.0,
        )
        logged_states = [service.state_fingerprint()]
        for step in program:
            before = service.wal.appended
            _apply_step(service, step)
            if service.wal.appended > before:
                logged_states.append(service.state_fingerprint())
        service.close()
        assert logged_states[-1] == states[-1]  # oracle agreement
        segments = [
            p for p in list_segments(wal_dir) if p.stat().st_size > 0
        ]
        if not segments:
            return  # program never logged anything (all no-op steps)
        segment = segments[-1]
        offsets = segment_record_offsets(segment)
        cuts = set(offsets)
        for start, end in zip(offsets, offsets[1:]):
            if end - start > 1:
                cuts.add(start + (end - start) // 2)  # mid-record tear
        for cut in sorted(cuts):
            trial = Path(root) / f"cut-{cut}"
            shutil.copytree(wal_dir, trial)
            target = trial / segment.name
            target.write_bytes(segment.read_bytes()[:cut])
            recovered = SilkMothService.recover(
                trial, config, wal_fsync=False
            )
            report = recovered.wal_recovery
            # checkpoint generation + surviving replay = how many logged
            # mutations the truncated directory still describes; the
            # recovered state must be the oracle trace at exactly that
            # prefix, never anything in between or beyond.
            surviving = report.checkpoint_generation + report.replayed
            fingerprint = recovered.state_fingerprint()
            _report_recovery(
                {
                    "harness": "torn_append",
                    "cut": cut,
                    "surviving_mutations": surviving,
                    "torn_tail": report.torn_tail,
                }
            )
            assert fingerprint == logged_states[surviving], (
                f"cut at byte {cut} ({surviving} surviving mutation(s)) "
                "recovered to a third state"
            )
            recovered.close()


def test_recovery_report_artifact_written(tmp_path, monkeypatch):
    """The sweep's JSONL artifact hook honours SILKMOTH_RECOVERY_REPORT."""
    report = tmp_path / "recovery-report.jsonl"
    monkeypatch.setenv(REPORT_ENV_VAR, str(report))
    _report_recovery({"harness": "unit", "outcome": "ok"})
    _report_recovery({"harness": "unit", "outcome": "ok2"})
    lines = report.read_text().splitlines()
    assert [json.loads(line)["outcome"] for line in lines] == ["ok", "ok2"]
    monkeypatch.delenv(REPORT_ENV_VAR)
    _report_recovery({"harness": "unit"})  # no-op without the variable
    assert len(report.read_text().splitlines()) == 2
