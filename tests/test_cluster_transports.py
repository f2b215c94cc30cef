"""Transport parity: process and socket shards equal inline shards.

The property suites pin exactness through the inline transport; these
tests pin that the worker-process transports run the byte-identical
shard code -- same results, same mutations, same snapshots -- plus the
protocol behaviours that only exist remotely: pipelined submit/collect,
error mirroring, and clean shutdown.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.cluster import (
    ClusterDegradedError,
    ShardTransportError,
    SilkMothCluster,
)
from repro.cluster.shard import ShardHost
from repro.cluster.transport import KNOWN_TRANSPORTS, make_transport
from repro.core.config import SilkMothConfig
from repro.settings import resolve

REMOTE_TRANSPORTS = ("process", "socket")

SHARD_COMMANDS = (
    "ping", "search", "add", "remove", "compact", "info", "sketches",
    "close",
)

DATA = [
    ["ash bay", "elm fir"],
    ["ash bay elm", "oak"],
    ["sky yew", "ivy"],
    ["ash", "fir elm"],
    ["oak sky", ""],
]

CONFIG = SilkMothConfig(delta=0.3)


@pytest.mark.parametrize("transport", REMOTE_TRANSPORTS)
def test_remote_transport_matches_inline(transport):
    """Search, discovery and mutation answers match the inline cluster."""
    with SilkMothCluster.from_sets(DATA, CONFIG, shards=2) as inline:
        with SilkMothCluster.from_sets(
            DATA, CONFIG, shards=2, transport=transport
        ) as remote:
            assert remote.discover() == inline.discover()
            for target in (inline, remote):
                target.add_set(["ash bay fresh"])
                target.remove_set(1)
            for reference in (["ash bay"], ["oak sky"], [""]):
                assert remote.search(reference) == inline.search(reference)
            assert remote.live_set_ids() == inline.live_set_ids()


@pytest.mark.parametrize("transport", REMOTE_TRANSPORTS)
def test_remote_snapshot_round_trip(transport, tmp_path):
    """A remote-transport cluster snapshots and reloads identically."""
    manifest = tmp_path / "cluster.json"
    with SilkMothCluster.from_sets(
        DATA, CONFIG, shards=2, transport=transport
    ) as cluster:
        expected = cluster.search(["ash bay"])
        cluster.save(manifest)
    loaded = SilkMothCluster.load(manifest, CONFIG, transport=transport)
    try:
        assert loaded.search(["ash bay"]) == expected
    finally:
        loaded.close()


@pytest.mark.parametrize("transport", REMOTE_TRANSPORTS)
def test_worker_errors_are_mirrored(transport):
    """An exception inside a worker surfaces as ShardTransportError."""
    endpoint = make_transport(transport, CONFIG, [("ash",)])
    try:
        assert endpoint.request("ping") == "pong"
        with pytest.raises(ShardTransportError) as excinfo:
            endpoint.request("no_such_command", ())
        assert "no_such_command" in str(excinfo.value)
        # The worker survives a failed command.
        assert endpoint.request("ping") == "pong"
    finally:
        endpoint.close()


@pytest.mark.parametrize("transport", KNOWN_TRANSPORTS)
def test_shard_protocol_is_eight_commands(transport):
    """A shard answers exactly ping, search, add, remove, compact, info,
    sketches and close; the retired log and inventory commands are
    unknown under every transport, and refusing one harms nothing."""
    assert sorted(
        name[len("_cmd_"):] for name in vars(ShardHost)
        if name.startswith("_cmd_")
    ) == sorted(SHARD_COMMANDS)
    endpoint = make_transport(transport, CONFIG, [("ash",), ("oak",)])
    try:
        for retired in ("checkpoint", "wal", "summary", "export"):
            with pytest.raises(ShardTransportError, match=retired):
                endpoint.request(retired, ())
        assert endpoint.request("ping") == "pong"
        assert endpoint.request("info", ())["live_sets"] == 2
    finally:
        endpoint.close()


@pytest.mark.parametrize("transport", REMOTE_TRANSPORTS)
def test_pipelined_submits_collect_in_order(transport):
    """submit/submit/collect/collect pairs replies in request order."""
    endpoint = make_transport(transport, CONFIG, [("ash",), ("oak",)])
    try:
        endpoint.submit("info", ())
        endpoint.submit("ping", ())
        info = endpoint.collect()
        assert endpoint.collect() == "pong"
        assert info["live_sets"] == 2
    finally:
        endpoint.close()


@pytest.mark.parametrize("transport", KNOWN_TRANSPORTS)
def test_collect_without_submit_raises(transport):
    """Protocol misuse fails fast and uniformly on every transport."""
    endpoint = make_transport(transport, CONFIG, ())
    try:
        with pytest.raises(
            ShardTransportError, match="without a pending submit"
        ):
            endpoint.collect()
        # Misuse is diagnosed, not destructive: the endpoint still works.
        assert endpoint.request("ping") == "pong"
    finally:
        endpoint.close()


def test_transport_knob_resolution(monkeypatch):
    """SILKMOTH_CLUSTER_TRANSPORT names the default transport."""
    monkeypatch.delenv("SILKMOTH_CLUSTER_TRANSPORT", raising=False)
    assert resolve("SILKMOTH_CLUSTER_TRANSPORT", None) == "inline"
    assert resolve("SILKMOTH_CLUSTER_TRANSPORT", "socket") == "socket"
    monkeypatch.setenv("SILKMOTH_CLUSTER_TRANSPORT", "process")
    assert resolve("SILKMOTH_CLUSTER_TRANSPORT", None) == "process"
    with pytest.raises(ValueError):
        resolve("SILKMOTH_CLUSTER_TRANSPORT", "carrier-pigeon")
    with pytest.raises(ValueError):
        make_transport("carrier-pigeon", CONFIG)
    assert set(KNOWN_TRANSPORTS) == {"inline", "process", "socket"}


def test_failed_fanout_does_not_desynchronize_later_queries():
    """A shard failure mid-fan-out degrades cleanly, never desyncs.

    The protocol pairs replies with submissions by order (no request
    ids), so a failed endpoint can never be reused -- the coordinator
    marks the replica dead instead.  With a single replica that makes
    the shard *lost*: queries needing it raise
    :class:`ClusterDegradedError` naming it (every search needs every
    shard), and :meth:`revive` rebuilds the shard from the
    coordinator's directory so later queries are correct again.
    """
    with SilkMothCluster.from_sets(
        DATA, CONFIG, shards=2, backoff=0.0
    ) as cluster:
        expected_a = cluster.search(["ash bay"])
        expected_b = cluster.search(["oak sky"])
        cluster.cache.invalidate()

        host = cluster._replicas.endpoint(0, 0).host
        original = host.handle
        calls = {"n": 0}

        def failing_handle(command, payload):
            if command == "search":
                calls["n"] += 1
                raise RuntimeError("injected shard failure")
            return original(command, payload)

        host.handle = failing_handle
        with pytest.raises(ClusterDegradedError) as excinfo:
            cluster.search(["ash bay"])
        assert excinfo.value.shards == (0,)
        assert calls["n"] == 1  # the query did reach the broken shard
        assert cluster.lost_shards() == [0]
        # Revive rebuilds shard 0 from the coordinator's raw/placement
        # state (dropping the monkeypatched host with it); the very
        # next queries answer correctly again.
        assert cluster.revive() == 1
        assert cluster.lost_shards() == []
        cluster.cache.invalidate()
        assert cluster.search(["oak sky"]) == expected_b
        assert cluster.search(["ash bay"]) == expected_a


@pytest.mark.parametrize("transport", KNOWN_TRANSPORTS)
def test_close_is_idempotent_and_normalizes_use_after_close(transport):
    """Double close is safe; use-after-close raises uniformly."""
    endpoint = make_transport(transport, CONFIG, [("ash",)])
    process = getattr(endpoint, "_process", None)
    endpoint.close()
    endpoint.close()
    if process is not None:
        assert not process.is_alive()
    with pytest.raises(ShardTransportError, match="closed"):
        endpoint.submit("ping", ())
    with pytest.raises(ShardTransportError):
        endpoint.collect()


@pytest.mark.parametrize("transport", KNOWN_TRANSPORTS)
def test_kill_is_abrupt_and_normalizes_use_after_kill(transport):
    """kill() models sudden worker death; the endpoint is then unusable."""
    endpoint = make_transport(transport, CONFIG, [("ash",)])
    endpoint.submit("ping", ())  # in-flight work dies with the worker
    process = getattr(endpoint, "_process", None)
    endpoint.kill()
    if process is not None:
        assert not process.is_alive()
    with pytest.raises(ShardTransportError):
        endpoint.submit("ping", ())
    with pytest.raises(ShardTransportError):
        endpoint.collect()
    endpoint.close()  # close after kill stays a no-op


# ----------------------------------------------------------------------
# Two-phase construction: start every worker, then await every ready
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", REMOTE_TRANSPORTS)
def test_await_ready_raises_the_workers_construction_error(transport):
    """Start returns at once; the construction error is await_ready's."""
    # An out-of-range threshold makes ShardHost raise in the worker.
    endpoint = make_transport(
        transport, CONFIG, compact_dead_fraction=0.0
    )
    process = endpoint._process
    try:
        with pytest.raises(ShardTransportError, match="failed to start"):
            endpoint.await_ready()
    finally:
        endpoint.close()
    assert not process.is_alive()


@pytest.mark.parametrize("transport", REMOTE_TRANSPORTS)
def test_cluster_constructor_raises_worker_construction_errors(
    transport,
):
    """A failed worker surfaces from from_sets, not from the first query."""
    before = set(multiprocessing.active_children())
    with pytest.raises(ShardTransportError, match="failed to start"):
        SilkMothCluster.from_sets(
            DATA, CONFIG, shards=2, transport=transport,
            compact_dead_fraction=0.0,
        )
    assert set(multiprocessing.active_children()) <= before


def test_failed_construction_closes_the_workers_already_started(monkeypatch):
    """Shard k failing to start must not orphan shards 0..k-1."""
    from repro.cluster import replicas

    calls = []

    def second_shard_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise MemoryError("no room for shard 1")
        return make_transport(*args, **kwargs)

    monkeypatch.setattr(replicas, "make_transport", second_shard_fails)
    before = set(multiprocessing.active_children())
    with pytest.raises(MemoryError, match="no room for shard 1"):
        SilkMothCluster.from_sets(
            DATA, CONFIG, shards=3, transport="process"
        )
    assert len(calls) == 2
    assert set(multiprocessing.active_children()) <= before


@pytest.mark.parametrize("transport", REMOTE_TRANSPORTS)
def test_constructor_returns_only_after_every_replica_is_ready(transport):
    """No construction reply is left for the first command to trip on."""
    with SilkMothCluster.from_sets(
        DATA, CONFIG, shards=2, replicas=2, transport=transport
    ) as cluster:
        endpoints = [
            cluster._replicas.endpoint(k, r)
            for k in range(cluster.n_shards)
            for r in range(cluster.replica_count)
        ]
        assert len(endpoints) == 4
        for endpoint in endpoints:
            assert endpoint._ready
            assert not endpoint._conn.poll(0)  # nothing unread on the wire
            assert endpoint.request("ping") == "pong"
