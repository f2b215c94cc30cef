"""Chaos suites: deterministic fault injection against the cluster.

Three layers of coverage:

1. **plan mechanics** -- seeded :class:`FaultPlan` schedules are
   replayable, match operations conjunctively, and fire each event
   exactly once on the right protocol phase;
2. **single-fault semantics** -- each transport-level fault kind
   (crash, hang, lost reply, tail latency) surfaces exactly as its
   real-world counterpart would, and the coordinator's failover
   machinery reacts identically to all of the desynchronising ones;
3. **chaos storms** -- whole mutation programs replayed under seeded
   fault schedules, asserting the acceptance bar: with a replica
   surviving per shard the answers stay bit-identical to the
   single-node oracle, and with a shard lost the failure is a typed
   :class:`ClusterDegradedError` naming it.

The fixed-seed storm below doubles as the CI ``chaos-smoke`` leg: it
runs on the *process* transport (real worker deaths) and appends its
fault schedule + firing log to ``$SILKMOTH_CHAOS_LOG`` when set, which
CI uploads as an artifact.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    FAULT_KINDS,
    ClusterDegradedError,
    FaultEvent,
    FaultPlan,
    FaultyTransport,
    ShardTimeoutError,
    ShardTransportError,
    SilkMothCluster,
)
from repro.cluster.transport import make_transport
from repro.core.config import SilkMothConfig
from strategies import token_sets

CONFIG = SilkMothConfig(delta=0.3)

DATA = [
    ["ash bay common", "elm fir"],
    ["ash bay elm common", "oak"],
    ["sky yew common", "ivy"],
    ["ash common", "fir elm"],
    ["oak sky common", ""],
    ["bay fir common", "yew"],
]

BROAD_REFERENCE = ["ash bay common", "oak sky common"]

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Plan mechanics
# ----------------------------------------------------------------------
def test_fault_event_validates_kind_and_after():
    """Schedule entries are validated at construction time."""
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultEvent(kind="gamma_ray")
    with pytest.raises(ValueError, match="1-based"):
        FaultEvent(kind="hang", after=0)
    assert set(FAULT_KINDS) == {
        "kill_shard",
        "hang",
        "drop_reply",
        "slow_collect",
        "corrupt_snapshot",
    }


def test_random_plans_replay_identically():
    """Same seed, same parameters => byte-identical schedule."""
    kwargs = dict(shards=3, replicas=2, n_events=6, max_after=9)
    first = FaultPlan.random(99, **kwargs)
    second = FaultPlan.random(99, **kwargs)
    assert first.to_dict() == second.to_dict()
    assert first.seed == 99
    assert len(first.events) == 6
    other = FaultPlan.random(100, **kwargs)
    assert other.to_dict() != first.to_dict()


def test_events_fire_on_the_matching_phase_and_count():
    """kill fires at submit, collect-side kinds at collect; `after`
    counts only matching operations; each event fires once."""
    plan = FaultPlan(
        [
            FaultEvent(kind="kill_shard", shard=1, command="add", after=2),
            FaultEvent(kind="drop_reply", shard=0, after=1),
        ]
    )
    # Non-matching shard/command ops leave the kill event un-armed.
    assert plan.on_operation("submit", 0, 0, "add") is None
    assert plan.on_operation("submit", 1, 0, "search") is None
    assert plan.on_operation("submit", 1, 0, "add") is None  # seen=1 < 2
    fired = plan.on_operation("submit", 1, 0, "add")
    assert fired is not None and fired.kind == "kill_shard"
    # A fired event never fires again.
    assert plan.on_operation("submit", 1, 0, "add") is None
    # Collect-side event ignores submits entirely.
    assert plan.on_operation("submit", 0, 0, "search") is None
    fired = plan.on_operation("collect", 0, 0, "search")
    assert fired is not None and fired.kind == "drop_reply"
    assert [entry["kind"] for entry in plan.fired_events()] == [
        "kill_shard",
        "drop_reply",
    ]


def test_quiesce_disarms_remaining_events():
    """quiesce() stops the storm so the post-chaos audit runs clean."""
    plan = FaultPlan(
        [
            FaultEvent(kind="hang", after=1),
            FaultEvent(kind="drop_reply", after=1),
        ]
    )
    assert plan.on_operation("collect", 0, 0, "search") is not None
    assert plan.quiesce() == 1
    assert plan.on_operation("collect", 0, 0, "search") is None


def test_plan_log_is_jsonl_serialisable(tmp_path):
    """write_log appends one JSON object per plan, with the firings."""
    log_path = tmp_path / "chaos.jsonl"
    plan = FaultPlan([FaultEvent(kind="hang", after=1)], seed=7)
    plan.on_operation("collect", 2, 1, "search")
    plan.write_log(log_path)
    plan.write_log(log_path)  # append, not truncate
    lines = log_path.read_text().splitlines()
    assert len(lines) == 2
    payload = json.loads(lines[0])
    assert payload["seed"] == 7
    assert payload["fired"][0]["hit_shard"] == 2
    assert payload["fired"][0]["hit_command"] == "search"


# ----------------------------------------------------------------------
# Single-fault semantics at the transport boundary
# ----------------------------------------------------------------------
def _wrapped(plan, transport="inline"):
    inner = make_transport(transport, CONFIG, [("ash",)])
    return FaultyTransport(inner, plan, shard=0, replica=0)


def test_kill_shard_dies_at_submit_and_stays_dead():
    """kill_shard: the worker dies before handling the command."""
    endpoint = _wrapped(
        FaultPlan([FaultEvent(kind="kill_shard", after=2)])
    )
    assert endpoint.request("ping") == "pong"
    with pytest.raises(ShardTransportError, match="kill_shard"):
        endpoint.submit("ping", ())
    # The endpoint is permanently dead, like a real crashed worker.
    with pytest.raises(ShardTransportError):
        endpoint.submit("ping", ())
    with pytest.raises(ShardTransportError):
        endpoint.collect()
    endpoint.close()


def test_hang_surfaces_as_timeout():
    """hang: the reply never arrives; collect raises the timeout type."""
    endpoint = _wrapped(FaultPlan([FaultEvent(kind="hang", after=1)]))
    endpoint.submit("ping", ())
    with pytest.raises(ShardTimeoutError, match="hang"):
        endpoint.collect(timeout=0.1)
    endpoint.close()


def test_drop_reply_kills_the_desynchronised_connection():
    """drop_reply: a lost reply can never be waited out -- the
    connection is desynchronised and the transport dies."""
    endpoint = _wrapped(FaultPlan([FaultEvent(kind="drop_reply", after=1)]))
    endpoint.submit("ping", ())
    with pytest.raises(ShardTransportError, match="drop_reply"):
        endpoint.collect()
    with pytest.raises(ShardTransportError):
        endpoint.submit("ping", ())
    endpoint.close()


def test_slow_collect_is_benign():
    """slow_collect: tail latency only -- the answer still arrives."""
    plan = FaultPlan(
        [FaultEvent(kind="slow_collect", after=1, delay=0.001)]
    )
    endpoint = _wrapped(plan)
    assert endpoint.request("ping") == "pong"
    assert endpoint.request("ping") == "pong"  # fires once, then clean
    assert [e["kind"] for e in plan.fired_events()] == ["slow_collect"]
    endpoint.close()


@pytest.mark.parametrize("kind", ["kill_shard", "hang", "drop_reply"])
def test_desynchronising_faults_trigger_failover(kind):
    """Every desynchronising fault kind drives the same failover path."""
    plan = FaultPlan([FaultEvent(kind=kind, shard=0, replica=0, after=1)])
    with SilkMothCluster.from_sets(
        DATA,
        CONFIG,
        shards=2,
        replicas=2,
        fault_plan=plan,
        backoff=0.0,
        deadline=5.0,
    ) as cluster:
        with _oracle() as oracle:
            assert cluster.search(BROAD_REFERENCE) == oracle.search(
                BROAD_REFERENCE
            )
        assert cluster.stats.replicas_lost == 1
        assert cluster.stats.failovers >= 1
        assert cluster.lost_shards() == []


def _oracle(sets=DATA, config=CONFIG):
    """Single-node identity baseline (see ``test_replication.py``)."""
    return SilkMothCluster.from_sets(sets, config, shards=1)


# ----------------------------------------------------------------------
# Chaos storms
# ----------------------------------------------------------------------
#: Fixed-seed storm parameters: enough events to guarantee several
#: firings across the program below, few enough to usually leave a
#: replica standing per shard.
SMOKE_SEED = 1234

#: The deterministic mutation/query program the smoke storm replays.
SMOKE_PROGRAM = [
    ("add", ["storm one common", "ash"]),
    ("remove", 1),
    ("update", 0, ["storm two common", "oak"]),
    ("add", ["storm three common"]),
    ("remove", 2),
    ("add", ["storm four common", "sky"]),
]


def _run_program(cluster, oracle, program):
    """Replay one program on both sides, mirroring degraded resyncs."""
    for step in program:
        live = cluster.live_set_ids()
        target = (
            live[step[1] % len(live)]
            if step[0] != "add" and live
            else None
        )
        try:
            if step[0] == "add":
                cluster.add_set(step[1])
            elif target is None:
                continue
            elif step[0] == "remove":
                cluster.remove_set(target)
            else:
                cluster.update_set(target, step[2])
        except ClusterDegradedError:
            # Nothing committed -- except an update whose tombstone
            # landed before the append was refused everywhere; mirror
            # exactly what the cluster committed.
            if target is not None and not cluster.is_live(target):
                oracle.remove_set(target)
            continue
        if step[0] == "add":
            oracle.add_set(step[1])
        elif step[0] == "remove":
            oracle.remove_set(target)
        else:
            oracle.update_set(target, step[2])


def _audit_identity(cluster, oracle, plan):
    """Post-storm bar: quiesce, revive, and demand bit-identity."""
    assert cluster.live_set_ids() == oracle.live_set_ids()
    plan.quiesce()
    cluster.revive()
    cluster.cache.invalidate()
    assert cluster.search(BROAD_REFERENCE) == oracle.search(BROAD_REFERENCE)
    assert cluster.discover() == oracle.discover()


def test_chaos_smoke_fixed_seed_process_transport():
    """The CI chaos leg: a seeded storm over real worker processes.

    Every fault fired is appended to ``$SILKMOTH_CHAOS_LOG`` (when
    set) so the schedule ships with the CI artifacts; the seed in the
    log is all that is needed to replay the storm locally.
    """
    plan = FaultPlan.random(
        SMOKE_SEED,
        shards=2,
        replicas=2,
        n_events=5,
        commands=("search", "add", "remove"),
        max_after=8,
    )
    with _oracle() as oracle, SilkMothCluster.from_sets(
        DATA,
        CONFIG,
        shards=2,
        replicas=2,
        transport="process",
        fault_plan=plan,
        backoff=0.0,
        deadline=10.0,
    ) as cluster:
        _run_program(cluster, oracle, SMOKE_PROGRAM)
        cluster.search(BROAD_REFERENCE)
        _audit_identity(cluster, oracle, plan)
    log_path = os.environ.get("SILKMOTH_CHAOS_LOG")
    if log_path:
        plan.write_log(log_path)


#: Seeds whose storm of block-request faults fires inside discover()
#: and fails over without losing a shard.
DISCOVERY_STORM_SEEDS = (2, 10)


@pytest.mark.parametrize("seed", DISCOVERY_STORM_SEEDS)
def test_chaos_during_discovery_process_transport(seed):
    """Faults fired *during* discover() leave the oracle's rows intact.

    :func:`_audit_identity` only discovers after the plan is quiesced,
    so this storm aims at the discovery block requests alone: workers
    die, drop replies or stall mid-discovery, each block is retried on
    the surviving replica, and the rows equal the single node's.
    """
    sets = DATA * 6  # 35 reference passes: five blocks
    plan = FaultPlan.random(
        seed,
        shards=2,
        replicas=2,
        n_events=4,
        commands=("search",),
        max_after=6,
    )
    with _oracle(sets) as oracle, SilkMothCluster.from_sets(
        sets,
        CONFIG,
        shards=2,
        replicas=2,
        transport="process",
        fault_plan=plan,
        backoff=0.0,
        deadline=10.0,
    ) as cluster:
        assert cluster.discover() == oracle.discover()
        assert plan.fired_events()
        assert cluster.stats.failovers >= 1
        assert cluster.lost_shards() == []


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@_SETTINGS
def test_chaos_storm_random_seeds_inline(seed):
    """Any seeded storm ends in bit-identity after revive (inline).

    The storm itself may degrade shards mid-program -- those failures
    must be typed and commit nothing -- but once the plan is quiesced
    and the dead replicas revived, the cluster answers exactly like
    the oracle again, whatever the storm did.
    """
    plan = FaultPlan.random(
        seed,
        shards=2,
        replicas=2,
        n_events=4,
        commands=("search", "add", "remove"),
        max_after=10,
    )
    with _oracle() as oracle, SilkMothCluster.from_sets(
        DATA,
        CONFIG,
        shards=2,
        replicas=2,
        fault_plan=plan,
        backoff=0.0,
        deadline=5.0,
    ) as cluster:
        _run_program(cluster, oracle, SMOKE_PROGRAM)
        try:
            cluster.search(BROAD_REFERENCE)
        except ClusterDegradedError as exc:
            assert set(exc.shards) <= set(cluster.lost_shards())
        _audit_identity(cluster, oracle, plan)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    extra=st.lists(token_sets(), min_size=0, max_size=3),
)
@_SETTINGS
def test_chaos_storm_preserves_id_space_invariant(seed, extra):
    """Mid-storm, the coordinator id space always matches the shards.

    This is the atomicity satellite at property scale: after *every*
    step of a faulted program (committed or refused), ``live_set_ids``
    on the cluster equals the oracle's mirror -- no half-applied
    mutation ever leaks into the global id space.
    """
    plan = FaultPlan.random(
        seed,
        shards=2,
        replicas=2,
        n_events=5,
        commands=("add", "remove"),
        max_after=6,
    )
    program = SMOKE_PROGRAM + [("add", list(elements)) for elements in extra]
    with _oracle() as oracle, SilkMothCluster.from_sets(
        DATA,
        CONFIG,
        shards=2,
        replicas=2,
        fault_plan=plan,
        backoff=0.0,
    ) as cluster:
        for step in program:
            _run_program(cluster, oracle, [step])
            assert cluster.live_set_ids() == oracle.live_set_ids()


@pytest.mark.bench
@pytest.mark.parametrize("transport", ["inline", "process"])
def test_chaos_sweep_long(transport):
    """Long randomized sweep (bench-marked): many seeds, both backbones."""
    for seed in range(40):
        plan = FaultPlan.random(
            seed,
            shards=3,
            replicas=2,
            n_events=5,
            commands=("search", "add", "remove"),
            max_after=10,
        )
        with _oracle() as oracle, SilkMothCluster.from_sets(
            DATA,
            CONFIG,
            shards=3,
            replicas=2,
            transport=transport,
            fault_plan=plan,
            backoff=0.0,
            deadline=10.0,
        ) as cluster:
            _run_program(cluster, oracle, SMOKE_PROGRAM)
            try:
                cluster.search(BROAD_REFERENCE)
            except ClusterDegradedError as exc:
                assert set(exc.shards) <= set(cluster.lost_shards())
            _audit_identity(cluster, oracle, plan)
