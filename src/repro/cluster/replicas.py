"""The replica grid: every transport endpoint the coordinator talks to.

Each logical shard runs ``R`` replicas -- independent endpoints holding
identical state, kept in lockstep by receiving identical mutation
streams in identical order.  :class:`ReplicaSet` owns the grid (who is
serving, who is dead), how an endpoint is built (transport, fault
wrapper) and the two ways a request reaches a shard:
a pipelined read with per-shard failover (:meth:`ReplicaSet.read`) and
a mutation applied to every healthy replica (:meth:`ReplicaSet.mutate`).
Nothing else indexes replicas.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Callable, Iterable

from repro.cluster.faults import FaultPlan, FaultyTransport
from repro.cluster.stats import ClusterStats
from repro.cluster.transport import (
    ShardTransport,
    ShardTransportError,
    make_transport,
)
from repro.core.config import SilkMothConfig
from repro.obs.instrument import (
    observe_degraded,
    observe_failover,
    observe_replica_death,
    observe_transport_error,
)
from repro.obs.trace import span
from repro.settings import resolve

#: Hard cap on any single failover backoff sleep (bounded by design).
MAX_BACKOFF_SECONDS = 0.5

#: Internal sentinel: a shard request that found no surviving replica
#: (distinguishable from a legitimate ``None`` reply).
_LOST = object()


def _close_quietly(transport: ShardTransport) -> None:
    """Close an endpoint that is being discarded, whatever state it is in."""
    try:
        transport.close()
    except Exception:  # noqa: BLE001 - endpoint already dead
        pass


class ClusterDegradedError(ShardTransportError):
    """Every replica of at least one required shard is unreachable.

    Raised instead of a raw :class:`ShardTransportError` once failover
    is exhausted, so callers learn *which* logical shards are lost (the
    :attr:`shards` tuple) rather than which TCP round-trip happened to
    die last.  Subclasses :class:`ShardTransportError` so existing
    error handling keeps working.  Every search needs every shard, so
    while one is lost a search raises this error; only a discovery
    pass whose floor lies past the lost shard's sets still answers.
    :meth:`SilkMothCluster.revive` rebuilds lost replicas from the
    coordinator's directory.
    """

    def __init__(self, shards):
        self.shards = tuple(sorted(shards))
        plural = "s" if len(self.shards) != 1 else ""
        super().__init__(
            f"cluster degraded: no live replica for shard{plural} "
            f"{', '.join(str(s) for s in self.shards)}"
        )


def request_deadline(
    deadline: "float | None", command: str, payload: tuple
) -> "float | None":
    """Seconds one shard request may take: *deadline* per pass it carries.

    A ``search`` request carries its passes as ``payload[0]``; every
    other command is one unit of work.
    """
    if deadline is None or command != "search":
        return deadline
    return deadline * len(payload[0])


class ReplicaSet:
    """Per logical shard, per replica: one endpoint and its health.

    The constructor resolves the replication settings, then builds
    every replica of *n_shards* shards from *state* (a shard's
    ``(raw_sets, deleted)``) as :meth:`revive` rebuilds dead ones: the
    grid starts dead.  A construction error raises from here with
    every started worker closed.  Lifecycle events are counted on
    *stats*.
    """

    def __init__(
        self,
        config: SilkMothConfig,
        stats: ClusterStats,
        n_shards: int,
        state: Callable[[int], tuple],
        *,
        transport: "str | None",
        replicas: "int | None",
        deadline: "float | None",
        backoff: "float | None",
        compact_dead_fraction: float,
        fault_plan: "FaultPlan | None",
    ):
        self.transport_name = resolve("SILKMOTH_CLUSTER_TRANSPORT", transport)
        #: Configured replicas per logical shard.
        self.count = resolve("SILKMOTH_REPLICAS", replicas)
        deadline = resolve("SILKMOTH_SHARD_DEADLINE", deadline)
        #: Per-request shard deadline in seconds (None = no deadline).
        self.deadline = deadline if deadline > 0 else None
        self.backoff = resolve("SILKMOTH_FAILOVER_BACKOFF", backoff)
        self.config = config
        self.stats = stats
        self._compact_dead_fraction = compact_dead_fraction
        self._fault_plan = fault_plan
        #: Per shard: its replica transports (identical state each).
        self._endpoints: "list[list[ShardTransport | None]]" = [
            [None] * self.count for _ in range(n_shards)
        ]
        #: Per shard, per replica: whether the endpoint is serving.
        self._healthy = [[False] * self.count for _ in range(n_shards)]
        self.revive(range(n_shards), state)

    # ------------------------------------------------------------------
    # Building endpoints
    # ------------------------------------------------------------------
    def _make(
        self, shard: int, replica: int, raw_sets, deleted
    ) -> ShardTransport:
        """Start one transport endpoint holding *shard*'s state.

        The endpoint may still be constructing when this returns (see
        :func:`~repro.cluster.transport.make_transport`).
        """
        inner = make_transport(
            self.transport_name,
            self.config,
            raw_sets,
            deleted,
            self._compact_dead_fraction,
        )
        if self._fault_plan is not None:
            return FaultyTransport(inner, self._fault_plan, shard, replica)
        return inner

    def revive(
        self, shards: Iterable[int], state: Callable[[int], tuple]
    ) -> int:
        """Build every dead replica of *shards*, all at once; how many.

        Each comes up holding ``state(k)``, its shard's authoritative
        ``(raw_sets, deleted)``.  Construction is two-phase: every
        endpoint is *started* (worker forked, construction tuple
        shipped) before the first one is *awaited*, so the workers
        tokenise and index concurrently.  Every endpoint has answered
        ready by the time this returns; if any step raises, every
        endpoint started here is closed first, so a failed construction
        leaves no orphaned worker behind, and the replicas stay dead.
        """
        slots = []
        for k in shards:
            dead = [r for r, ok in enumerate(self._healthy[k]) if not ok]
            if dead:
                raw_sets, deleted = state(k)
            for r in dead:
                if self._endpoints[k][r] is not None:
                    _close_quietly(self._endpoints[k][r])
                slots.append((k, r, raw_sets, deleted))
        endpoints: "list[ShardTransport]" = []
        try:
            for slot in slots:
                endpoints.append(self._make(*slot))
            for transport in endpoints:
                transport.await_ready()
        except BaseException:
            for transport in endpoints:
                _close_quietly(transport)
            raise
        for (k, r, _, _), transport in zip(slots, endpoints):
            self._endpoints[k][r] = transport
            self._healthy[k][r] = True
        return len(slots)

    def close(self) -> None:
        """Shut every endpoint down."""
        for replicas in self._endpoints:
            for transport in replicas:
                transport.close()

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def endpoint(self, shard: int, replica: int) -> ShardTransport:
        """The transport of one replica (tests and tools reach it here)."""
        return self._endpoints[shard][replica]

    def health(self) -> list[list[bool]]:
        """Per shard, per replica: whether the endpoint is serving."""
        return [list(flags) for flags in self._healthy]

    def _healthy_indices(self, shard: int) -> list[int]:
        """Healthy replica indices for *shard*, lowest (the read
        replica) first."""
        return [
            r for r, healthy in enumerate(self._healthy[shard]) if healthy
        ]

    def reachable(self) -> list[int]:
        """Shards with at least one healthy replica (they take writes)."""
        return [
            k for k in range(len(self._healthy)) if any(self._healthy[k])
        ]

    def lost(self) -> list[int]:
        """Shards with zero healthy replicas."""
        return [
            k for k in range(len(self._healthy)) if not any(self._healthy[k])
        ]

    def mark_dead(self, shard: int, replica: int) -> None:
        """Record one replica's death and tear its transport down.

        The submit/collect protocol has no request ids, so after any
        failure (crash, hang, lost reply) the connection is
        desynchronised and must never be reused: the endpoint is killed
        and excluded from reads and writes until :meth:`revive` rebuilds
        it.
        """
        if not self._healthy[shard][replica]:
            return
        self._healthy[shard][replica] = False
        self.stats.replicas_lost += 1
        observe_replica_death()
        try:
            self._endpoints[shard][replica].kill()
        except Exception:  # noqa: BLE001 - endpoint is already being dropped
            pass

    def degraded(self, shards) -> ClusterDegradedError:
        """Record one degraded-shard failure and build its error."""
        self.stats.degraded_failures += 1
        observe_degraded()
        return ClusterDegradedError(shards)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _call(self, shard: int, replica: int, call: Callable):
        """*call* on one replica's transport; :data:`_LOST` if it fails.

        The submit/collect protocol pairs replies with requests by
        order alone, so after any failure the connection can never be
        reused: the replica is marked dead (:meth:`mark_dead`).
        """
        try:
            return call(self._endpoints[shard][replica])
        except Exception:  # noqa: BLE001 - the replica is dead either way
            observe_transport_error()
            self.mark_dead(shard, replica)
            return _LOST

    def _failover(self, shard: int, command: str, payload: tuple):
        """Retry *command* on *shard*'s surviving replicas, in order.

        Sleeps an exponentially growing backoff (base :attr:`backoff`,
        capped at :data:`MAX_BACKOFF_SECONDS`) before each attempt, so
        a flapping shard is not hammered.  Each failed attempt kills
        that replica, so the loop is bounded by the replica count.
        Returns the reply, or :data:`_LOST` when no replica survives.
        """
        deadline = request_deadline(self.deadline, command, payload)
        attempt = 0
        while True:
            live = self._healthy_indices(shard)
            if not live:
                return _LOST
            attempt += 1
            pause = min(
                self.backoff * (2 ** (attempt - 1)), MAX_BACKOFF_SECONDS
            )
            if pause > 0:
                time.sleep(pause)
            replica = live[0]
            self.stats.failovers += 1
            observe_failover()
            with span("cluster.failover", shard=shard, replica=replica):
                reply = self._call(
                    shard,
                    replica,
                    lambda t: t.request(command, payload, deadline),
                )
            if reply is not _LOST:
                return reply

    def read(
        self,
        command: str,
        payloads: list,
        selected: list,
        allow_lost: bool = False,
        collect_span: bool = False,
    ) -> list:
        """Pipelined read fan-out with per-shard failover.

        Submits *command* to each selected shard's read replica (so
        worker shards compute concurrently), then collects in order
        under the per-request deadline (:func:`request_deadline`).  A
        failed submit or collect marks that replica dead and retries
        synchronously on the next one via :meth:`_failover`.  Shards
        with no surviving replica either raise
        :class:`ClusterDegradedError` (default) or yield ``None``
        replies (*allow_lost*, for best-effort reads like
        :meth:`SilkMothCluster.shard_infos`).  *collect_span* wraps the
        collect phase -- and only it -- in a ``cluster.collect`` span:
        the submit phase must stay outside so an inline shard (which
        executes at submit time) parents its spans under the caller's
        query span, not the transport wait.
        """
        pending: "list[tuple[int, int | None, tuple]]" = []
        for k, payload in zip(selected, payloads):
            live = self._healthy_indices(k)
            replica = live[0] if live else None
            if replica is not None and self._call(
                k, replica, lambda t: t.submit(command, payload)
            ) is _LOST:
                replica = None  # failover at collect time
            pending.append((k, replica, payload))
        replies = []
        lost = []
        with span("cluster.collect", shards=len(selected)) if collect_span \
                else nullcontext():
            for k, replica, payload in pending:
                deadline = request_deadline(self.deadline, command, payload)
                reply = _LOST
                if replica is not None:
                    reply = self._call(
                        k, replica, lambda t: t.collect(deadline)
                    )
                if reply is _LOST:
                    reply = self._failover(k, command, payload)
                if reply is _LOST:
                    lost.append(k)
                    replies.append(None)
                else:
                    replies.append(reply)
        if lost and not allow_lost:
            raise self.degraded(lost)
        return replies

    def read_all(self, command: str, allow_lost: bool = False) -> list:
        """:meth:`read` of a payload-less *command* from every shard."""
        shards = list(range(len(self._endpoints)))
        return self.read(command, [()] * len(shards), shards, allow_lost)

    def mutate(self, shard: int, command: str, payload: tuple):
        """Apply one mutation to every healthy replica of *shard*.

        Replicas stay in lockstep by receiving identical mutation
        streams in identical order, so all successful replies are
        interchangeable; the first one is returned.  At least one
        success commits the mutation (failed replicas are marked dead
        -- they are rebuilt from the directory by :meth:`revive`, never
        trusted again as-is).  Zero successes raises
        :class:`ClusterDegradedError` and the caller must leave every
        piece of coordinator bookkeeping untouched.
        """
        submitted = []
        for replica in self._healthy_indices(shard):
            if self._call(
                shard, replica, lambda t: t.submit(command, payload)
            ) is not _LOST:
                submitted.append(replica)
        reply = _LOST
        for replica in submitted:
            value = self._call(
                shard, replica, lambda t: t.collect(self.deadline)
            )
            if reply is _LOST:
                reply = value
        if reply is _LOST:
            raise self.degraded([shard])
        return reply
