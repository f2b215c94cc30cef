"""Shard replication: lockstep replicas, failover, degraded semantics.

The replication claim in test form: with R replicas per shard, killing
any single replica -- or any single shard worker, as long as one
replica of it survives -- is *observably invisible*: search and
discovery stay bit-identical to a single-node oracle fed the same
mutation program.  When every replica of a needed shard is gone, the
cluster fails loudly with :class:`ClusterDegradedError` naming the
lost shards, commits nothing half-way (the coordinator id space never
drifts from what surviving shards hold), and :meth:`revive` rebuilds
the lost replicas from the coordinator's directory.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import base
from repro.cluster import (
    BACKOFF_ENV_VAR,
    DEADLINE_ENV_VAR,
    REPLICAS_ENV_VAR,
    ClusterDegradedError,
    FaultEvent,
    FaultPlan,
    SilkMothCluster,
    resolve_backoff,
    resolve_deadline,
    resolve_replica_count,
)
from repro.cluster.coordinator import BLOCK_COMMAND, request_deadline
from repro.core.config import SilkMothConfig
from strategies import collections, token_configs, token_sets
from strategies.kernels import KERNEL_MODES, kernel_mode

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

DATA = [
    ["ash bay common", "elm fir"],
    ["ash bay elm common", "oak"],
    ["sky yew common", "ivy"],
    ["ash common", "fir elm"],
    ["oak sky common", ""],
    ["bay fir common", "yew"],
]

CONFIG = SilkMothConfig(delta=0.3)

#: A reference overlapping every shard's tokens, so routing cannot
#: skip the shard the test is killing.
BROAD_REFERENCE = ["ash bay common", "oak sky common"]

_mutations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), token_sets()),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=30)),
        st.tuples(
            st.just("update"),
            st.integers(min_value=0, max_value=30),
            token_sets(),
        ),
    ),
    min_size=1,
    max_size=8,
)


def _oracle_for(sets, config):
    """The single-node identity baseline: one inline shard, R=1.

    A 1-shard cluster runs the plain single-node engine behind an
    in-process transport and is proven bit-identical to it by the
    identity suites in ``test_cluster.py``, while exposing the same
    global-id mutation API as the replicated cluster under test.
    """
    return SilkMothCluster.from_sets(sets, config, shards=1, replicas=1)


def _mirror_mutations(cluster, service, mutations):
    """Apply one program to both sides, resyncing on degraded failures.

    A mutation the cluster refused (``ClusterDegradedError``) committed
    nothing, so the oracle skips it too -- with one documented
    exception: an ``update`` whose tombstone landed before every shard
    refused the append degenerates to a remove, which the oracle then
    mirrors.  Either way both id spaces must agree afterwards.
    """
    for step in mutations:
        live = cluster.live_set_ids()
        target = live[step[1] % len(live)] if step[0] != "add" and live else None
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
            if target is not None and not cluster.is_live(target):
                service.remove_set(target)
            continue
        if step[0] == "add":
            service.add_set(step[1])
        elif step[0] == "remove":
            service.remove_set(target)
        else:
            service.update_set(target, step[2])


@pytest.mark.parametrize("kernels", KERNEL_MODES)
@given(
    sets=collections(min_sets=2, max_sets=6),
    mutations=_mutations,
    reference=token_sets(),
    config=token_configs(),
    shards=st.integers(min_value=1, max_value=3),
    victim=st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=6),
    ),
)
@_SETTINGS
def test_single_replica_kill_is_invisible(
    kernels, sets, mutations, reference, config, shards, victim
):
    """R=2: killing any one replica mid-program changes no answer.

    The kill lands on a Hypothesis-chosen (shard, replica) after a
    chosen number of operations; whatever it interrupts, every query
    and the final id space must stay bit-identical to the single-node
    oracle, because the sibling replica holds the same state.
    """
    with kernel_mode(kernels):
        config = replace(config, scheme="dichotomy")
        shard, replica, after = victim
        plan = FaultPlan(
            [
                FaultEvent(
                    kind="kill_shard",
                    shard=shard % shards,
                    replica=replica,
                    after=after,
                )
            ]
        )
        with _oracle_for(sets, config) as service, SilkMothCluster.from_sets(
            sets, config, shards=shards, replicas=2, fault_plan=plan, backoff=0.0
        ) as cluster:
            _mirror_mutations(cluster, service, mutations)
            assert cluster.lost_shards() == []
            assert cluster.live_set_ids() == service.live_set_ids()
            assert cluster.search(reference) == service.search(reference)
            assert cluster.discover() == service.discover()


def test_failover_retries_on_next_replica():
    """A replica death mid-query fails over and still answers."""
    plan = FaultPlan(
        [FaultEvent(kind="kill_shard", shard=0, replica=0, after=1)]
    )
    with _oracle_for(DATA, CONFIG) as oracle, SilkMothCluster.from_sets(
        DATA, CONFIG, shards=2, replicas=2, fault_plan=plan, backoff=0.0
    ) as cluster:
        assert cluster.search(BROAD_REFERENCE) == oracle.search(
            BROAD_REFERENCE
        )
        assert cluster.stats.failovers >= 1
        assert cluster.stats.replicas_lost == 1
        assert cluster.replica_health()[0] == [False, True]
        assert cluster.lost_shards() == []


def test_all_replicas_dead_names_lost_shards():
    """Exhausting every replica of a shard raises ClusterDegradedError."""
    plan = FaultPlan(
        [
            FaultEvent(kind="kill_shard", shard=1, replica=0, after=1),
            FaultEvent(kind="kill_shard", shard=1, replica=1, after=1),
        ]
    )
    with SilkMothCluster.from_sets(
        DATA, CONFIG, shards=2, replicas=2, fault_plan=plan, backoff=0.0
    ) as cluster:
        with pytest.raises(ClusterDegradedError) as excinfo:
            cluster.search(BROAD_REFERENCE)
        assert excinfo.value.shards == (1,)
        assert cluster.lost_shards() == [1]
        assert cluster.stats.degraded_failures >= 1
        # A degraded cluster is still a cluster: introspection works and
        # reports the loss instead of raising.
        infos = cluster.shard_infos()
        assert infos[1].get("lost") is True


def test_degraded_mutations_do_not_desync_id_space():
    """Refused mutations leave the coordinator id space untouched.

    The atomicity policy under test: zero replica successes must
    commit *nothing* -- ``live_set_ids`` (and the tombstone set) agree
    with the surviving shards before and after the failure, and after
    :meth:`revive` the whole cluster answers from exactly that state.
    """
    plan = FaultPlan(
        [
            FaultEvent(kind="kill_shard", shard=0, replica=0, after=1),
            FaultEvent(kind="kill_shard", shard=0, replica=1, after=1),
        ]
    )
    with _oracle_for(DATA, CONFIG) as oracle, SilkMothCluster.from_sets(
        DATA, CONFIG, shards=2, replicas=2, fault_plan=plan, backoff=0.0
    ) as cluster:
        before = cluster.live_set_ids()
        total_before = cluster.total_sets
        # Global id 0 lives on shard 0 (round-robin placement); the
        # plan kills both its replicas on the remove's submit.
        with pytest.raises(ClusterDegradedError) as excinfo:
            cluster.remove_set(0)
        assert excinfo.value.shards == (0,)
        assert cluster.live_set_ids() == before
        assert cluster.total_sets == total_before
        assert cluster.is_live(0)
        # Adds avoid the lost shard entirely and still commit.
        gid = cluster.add_set(["fresh common set"])
        oracle.add_set(["fresh common set"])
        assert gid == total_before
        assert cluster.placement_of(gid)[0] != 0
        # Revive rebuilds shard 0 from the directory; the set the
        # failed remove targeted is still there, and answers match the
        # oracle (which never saw the refused remove either).
        assert cluster.revive() == 2
        assert cluster.stats.replicas_revived == 2
        assert cluster.live_set_ids() == oracle.live_set_ids()
        assert cluster.search(BROAD_REFERENCE) == oracle.search(
            BROAD_REFERENCE
        )


def test_update_degenerates_to_remove_when_no_shard_takes_the_add():
    """update_set with every shard lost mid-way commits the tombstone.

    The remove applies to the owning shard's replicas first; if *every*
    shard then refuses the append, the tombstone stands (the surviving
    replicas really did drop the old record) and the degraded error
    propagates -- the id space still agrees with the shards.
    """
    # One shard, two replicas: the update's remove succeeds, then both
    # replicas die on the add that follows it.
    plan = FaultPlan(
        [
            FaultEvent(kind="kill_shard", shard=0, replica=0, command="add", after=1),
            FaultEvent(kind="kill_shard", shard=0, replica=1, command="add", after=1),
        ]
    )
    with SilkMothCluster.from_sets(
        DATA[:3], CONFIG, shards=1, replicas=2, fault_plan=plan, backoff=0.0
    ) as cluster:
        total_before = cluster.total_sets
        with pytest.raises(ClusterDegradedError):
            cluster.update_set(0, ["replacement words"])
        # Tombstone committed, no fresh id assigned.
        assert not cluster.is_live(0)
        assert cluster.total_sets == total_before
        assert cluster.revive() == 2
        assert 0 not in cluster.live_set_ids()


def test_revive_rebuilds_lockstep_replicas():
    """A revived replica is in lockstep: killing the survivor after
    revive() must be invisible to queries."""
    plan = FaultPlan(
        [FaultEvent(kind="kill_shard", shard=0, replica=0, after=1)]
    )
    with _oracle_for(DATA, CONFIG) as oracle, SilkMothCluster.from_sets(
        DATA, CONFIG, shards=2, replicas=2, fault_plan=plan, backoff=0.0
    ) as cluster:
        cluster.search(BROAD_REFERENCE)  # kills replica (0, 0)
        cluster.add_set(["post kill common"])  # survivor-only mutation
        oracle.add_set(["post kill common"])
        assert cluster.revive() == 1
        # Now kill the original survivor; the revived replica answers.
        cluster._shards[0][1].kill()
        cluster.cache.invalidate()
        assert cluster.search(BROAD_REFERENCE) == oracle.search(
            BROAD_REFERENCE
        )
        assert cluster.discover() == oracle.discover()


def test_replicated_snapshot_round_trip(tmp_path):
    """save/load is replica-agnostic: R=2 state reloads under R=1."""
    manifest = tmp_path / "cluster.json"
    with SilkMothCluster.from_sets(
        DATA, CONFIG, shards=2, replicas=2
    ) as cluster:
        cluster.add_set(["snapshot witness common"])
        expected = cluster.search(BROAD_REFERENCE)
        cluster.save(manifest)
    loaded = SilkMothCluster.load(manifest, CONFIG, replicas=1)
    try:
        assert loaded.replica_count == 1
        assert loaded.search(BROAD_REFERENCE) == expected
    finally:
        loaded.close()


def test_replica_knob_resolution(monkeypatch):
    """SILKMOTH_REPLICAS / deadline / backoff env knobs resolve."""
    monkeypatch.delenv(REPLICAS_ENV_VAR, raising=False)
    monkeypatch.delenv(DEADLINE_ENV_VAR, raising=False)
    monkeypatch.delenv(BACKOFF_ENV_VAR, raising=False)
    assert resolve_replica_count(None) == 1
    assert resolve_replica_count(3) == 3
    assert resolve_deadline(None) is None
    assert resolve_deadline(0) is None
    assert resolve_deadline(2.5) == 2.5
    assert resolve_backoff(None) == 0.05
    monkeypatch.setenv(REPLICAS_ENV_VAR, "2")
    monkeypatch.setenv(DEADLINE_ENV_VAR, "1.5")
    monkeypatch.setenv(BACKOFF_ENV_VAR, "0.01")
    assert resolve_replica_count(None) == 2
    assert resolve_deadline(None) == 1.5
    assert resolve_backoff(None) == 0.01
    with pytest.raises(ValueError):
        resolve_replica_count(0)
    with pytest.raises(ValueError):
        resolve_backoff(-1.0)


def test_block_requests_wait_the_deadline_per_pass():
    """A block request waits the shard deadline times its passes.

    One helper sizes the wait, for the first collect and for the
    failover retry alike; every other request waits the deadline.
    """
    item = (("ash",), None, 0)
    assert request_deadline(None, BLOCK_COMMAND, ((item,) * 3, None)) is None
    assert request_deadline(1.5, "search", item + (None,)) == 1.5
    assert request_deadline(1.5, BLOCK_COMMAND, ((item,) * 3, None)) == 4.5
    waits = []

    def spy(transport):
        submit, collect = transport.submit, transport.collect
        pending = []

        def spy_submit(command, payload):
            pending.append(len(payload[0]) if command == BLOCK_COMMAND else 0)
            submit(command, payload)

        def spy_collect(timeout=None):
            passes = pending.pop(0)
            if passes:
                waits.append((passes, timeout))
            return collect(timeout)

        transport.submit, transport.collect = spy_submit, spy_collect

    plan = FaultPlan(
        [FaultEvent(kind="drop_reply", shard=0, command=BLOCK_COMMAND)]
    )
    with SilkMothCluster.from_sets(
        DATA * 3,
        CONFIG,
        shards=2,
        replicas=2,
        fault_plan=plan,
        backoff=0.0,
        deadline=1.5,
    ) as cluster:
        for replicas in cluster._shards:
            for transport in replicas:
                spy(transport)
        cluster.discover()
        assert cluster.stats.failovers == 1
    # Shard 0's first block is collected twice: dropped, then retried.
    assert waits[0] == waits[1] and waits[0][0] > 1
    assert all(timeout == 1.5 * passes for passes, timeout in waits)


def test_replicated_cluster_info_reports_health():
    """replica_health()/lost_shards() expose the failover state."""
    with SilkMothCluster.from_sets(
        DATA, CONFIG, shards=2, replicas=2
    ) as cluster:
        assert cluster.replica_count == 2
        assert cluster.replica_health() == [[True, True], [True, True]]
        assert cluster.lost_shards() == []
        assert cluster.revive() == 0  # nothing to do on a healthy cluster


# ----------------------------------------------------------------------
# Construction: every replica starts before the first one is awaited
# ----------------------------------------------------------------------
@pytest.fixture
def handshake_log(monkeypatch):
    """Record the order of worker starts and first ready-awaits."""
    from repro.cluster.transport import ProcessTransport

    log = []
    start, await_ready = ProcessTransport._start, ProcessTransport.await_ready

    def logged_start(self, *args, **kwargs):
        log.append("start")
        start(self, *args, **kwargs)

    def logged_await(self):
        if not self._ready:
            log.append("await")
        await_ready(self)

    monkeypatch.setattr(ProcessTransport, "_start", logged_start)
    monkeypatch.setattr(ProcessTransport, "await_ready", logged_await)
    return log


def test_replicas_and_revivals_are_built_concurrently(handshake_log):
    """2 shards x 2 replicas: four starts, then four awaits -- under a
    fault plan too, and again for the replicas revive() brings back."""
    plan = FaultPlan([FaultEvent(kind="kill_shard", shard=1, after=1)])
    with _oracle_for(DATA, CONFIG) as oracle, SilkMothCluster.from_sets(
        DATA,
        CONFIG,
        shards=2,
        replicas=2,
        transport="process",
        fault_plan=plan,
        backoff=0.0,
    ) as cluster:
        assert handshake_log == ["start"] * 4 + ["await"] * 4
        del handshake_log[:]
        cluster.search(BROAD_REFERENCE)  # the plan kills replica (1, 0)
        cluster._shards[1][1].kill()
        cluster._shards[0][0].kill()
        with pytest.raises(ClusterDegradedError):
            cluster.discover()
        assert cluster.replica_health() == [[False, True], [False, False]]
        assert cluster.revive() == 3
        assert handshake_log == ["start"] * 3 + ["await"] * 3
        assert cluster.replica_health() == [[True, True], [True, True]]
        assert cluster.discover() == oracle.discover()


@pytest.mark.skipif(base.numpy_kernels is None, reason="numpy not installed")
def test_kernel_workers_fail_over_exactly(monkeypatch):
    """Killing a worker that runs the batched kernels is still invisible.

    Dense shards of 18 sets hand the workers' numpy kernels long
    batches; a replica of each shard dies mid-discovery, on a later
    block of references, and the rows still equal the single node's,
    scores included.  The retried blocks carry their floors.
    """
    from repro.sim.functions import SimilarityKind
    from strategies import clustered_edit_sets

    config = SilkMothConfig(
        similarity=SimilarityKind.EDS, delta=0.5, alpha=0.6
    )
    sets = clustered_edit_sets(
        seed=11, clusters=12, sets_per_cluster=3, strings=6
    )
    retried = []
    original = SilkMothCluster._failover_request

    def recording(self, shard, command, payload):
        retried.extend(first_local for *_, first_local in payload[0])
        return original(self, shard, command, payload)

    monkeypatch.setattr(SilkMothCluster, "_failover_request", recording)
    plan = FaultPlan(
        [
            FaultEvent(
                kind="kill_shard", shard=0, command=BLOCK_COMMAND, after=2
            ),
            FaultEvent(kind="hang", shard=1, command=BLOCK_COMMAND, after=4),
        ]
    )
    with _oracle_for(sets, config) as oracle, SilkMothCluster.from_sets(
        sets,
        config,
        shards=2,
        replicas=2,
        transport="process",
        fault_plan=plan,
        backoff=0.0,
    ) as cluster:
        assert cluster.discover() == oracle.discover()
        assert len(plan.fired_events()) == 2
        assert cluster.stats.failovers >= 2
        assert cluster.lost_shards() == []
    assert retried and all(first_local > 0 for first_local in retried)
