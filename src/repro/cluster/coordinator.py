"""`SilkMothCluster`: signature-routed related-set serving across shards.

The coordinator owns the *global* view of a sharded collection: the
append-only global id space, the placement table mapping each global id
to ``(shard, local id)``, the raw element texts (its directory), the
per-shard routing summaries, the cluster-level query cache and the
lifetime stats.  Shards own everything else -- each one is a full
single-node engine (collection, inverted index, sim memo, planner
decision) behind a :mod:`~repro.cluster.transport`.

A query runs in four steps:

1. **route** -- hash the reference's index tokens and intersect them
   with every shard summary; shards that provably cannot answer are
   skipped (see :mod:`repro.cluster.routing` for the exactness
   argument);
2. **fan out** -- submit the search (:meth:`discover`: a block of
   passes) to every routed shard, then collect (worker shards compute
   concurrently);
3. **merge** -- translate shard-local result ids to global ids, sort,
   and sum the shards' :class:`~repro.core.stats.PassStats` into one
   :class:`~repro.cluster.stats.ClusterPassStats`;
4. **cache** -- memoise under the cluster-wide write generation,
   exactly like the single-node service.

Mutations mirror :class:`repro.service.SilkMothService` semantics on
the global id space -- ``add`` appends a fresh global id,
``remove`` tombstones, ``update`` is tombstone-plus-append -- so a
cluster is observably identical to a single-node service fed the same
mutation sequence.  :meth:`compact` additionally *rebalances*: live
sets migrate from overloaded to underloaded shards (global ids
untouched -- only the placement table changes), then every summary is
rebuilt tight from the shards' live token inventories.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_left
from contextlib import nullcontext
from itertools import accumulate
from pathlib import Path
from typing import Callable, Sequence

from repro.cluster.routing import (
    ReferenceProbe,
    ShardSummary,
    element_token_hashes,
    make_token_summary,
    reference_probe,
    resolve_summary_bits,
    routing_certificate_holds,
)
from repro.cluster.faults import FaultPlan, FaultyTransport
from repro.cluster.stats import ClusterPassStats, ClusterStats
from repro.cluster.transport import (
    ShardTransport,
    ShardTransportError,
    make_transport,
    resolve_transport_name,
)
from repro.core.config import Relatedness, SilkMothConfig
from repro.core.results import DiscoveryResult, SearchResult
from repro.core.stats import RunStats
from repro.io.persistence import (
    load_cluster_manifest,
    load_shard_snapshot,
    save_cluster_manifest,
    save_shard_snapshot,
)
from repro.io.wal import resolve_wal_dir, wal_directory_in_use
from repro.obs.diag import get_slowlog, observe_slow_cluster_query, slowlog_ms
from repro.obs.sketch import get_sketch_registry, merge_payloads, quantile_summary
from repro.obs.instrument import (
    observe_degraded,
    observe_failover,
    observe_replica_death,
    observe_transport_error,
)
from repro.obs.trace import current_context, ingest, span
from repro.pipeline.driver import discovery_floor, keep_discovery_pair
from repro.planner.cost import IndexProfile, merge_profiles
from repro.service.batch import plan_batch
from repro.service.cache import (
    LRUQueryCache,
    config_fingerprint,
    reference_fingerprint,
)
from repro.sim.functions import SimilarityKind
from repro.tokenize.tokenizers import Tokenizer

#: Environment variable supplying the default shard count.
SHARDS_ENV_VAR = "SILKMOTH_SHARDS"

#: Shard count when neither the constructor nor the env var names one.
DEFAULT_SHARDS = 4

#: Environment variable supplying the default replicas per shard.
REPLICAS_ENV_VAR = "SILKMOTH_REPLICAS"

#: Replicas per shard when neither constructor nor env var names one.
DEFAULT_REPLICAS = 1

#: Environment variable supplying the per-request shard deadline.
DEADLINE_ENV_VAR = "SILKMOTH_SHARD_DEADLINE"

#: Environment variable supplying the failover backoff base.
BACKOFF_ENV_VAR = "SILKMOTH_FAILOVER_BACKOFF"

#: Failover backoff base (seconds) when nothing names one.
DEFAULT_BACKOFF = 0.05

#: Hard cap on any single failover backoff sleep (bounded by design).
MAX_BACKOFF_SECONDS = 0.5

#: Reference passes per discovery request: each routed shard gets one
#: :data:`BLOCK_COMMAND` request per block; a failover retries it whole.
DISCOVERY_BLOCK = 8
BLOCK_COMMAND = "search_block"

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
    error handling keeps working.  A degraded cluster still answers
    queries whose routing avoids the lost shards, and
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


def resolve_shard_count(shards: "int | None") -> int:
    """Resolve the shard-count knob: explicit value, env var, default."""
    if shards is None:
        raw = os.environ.get(SHARDS_ENV_VAR) or None
        shards = int(raw) if raw is not None else DEFAULT_SHARDS
    if shards < 1:
        raise ValueError(f"a cluster needs >= 1 shard, got {shards}")
    return shards


def resolve_replica_count(replicas: "int | None") -> int:
    """Resolve the replica knob: explicit value, env var, default (1)."""
    if replicas is None:
        raw = os.environ.get(REPLICAS_ENV_VAR) or None
        replicas = int(raw) if raw is not None else DEFAULT_REPLICAS
    if replicas < 1:
        raise ValueError(f"a shard needs >= 1 replica, got {replicas}")
    return replicas


def resolve_deadline(deadline: "float | None") -> "float | None":
    """Resolve the per-request deadline: explicit, env var, disabled.

    ``None`` (or ``0``) disables the deadline entirely -- collects
    block until the shard answers, matching pre-replication behaviour.
    """
    if deadline is None:
        raw = os.environ.get(DEADLINE_ENV_VAR) or None
        deadline = float(raw) if raw is not None else None
    if deadline is not None and deadline <= 0:
        return None
    return deadline


def request_deadline(
    deadline: "float | None", command: str, payload: tuple
) -> "float | None":
    """Seconds one shard request may take: *deadline* per pass it carries.

    Only a :data:`BLOCK_COMMAND` request carries more than one pass.
    """
    if deadline is None or command != BLOCK_COMMAND:
        return deadline
    return deadline * len(payload[0])


def resolve_backoff(backoff: "float | None") -> float:
    """Resolve the failover backoff base: explicit, env var, default."""
    if backoff is None:
        raw = os.environ.get(BACKOFF_ENV_VAR) or None
        backoff = float(raw) if raw is not None else DEFAULT_BACKOFF
    if backoff < 0:
        raise ValueError(f"backoff must be >= 0, got {backoff}")
    return backoff


class SilkMothCluster:
    """Related-set search/discovery/serving over N sharded engines.

    Parameters
    ----------
    config:
        Engine configuration, shared by every shard (results cached
        under its fingerprint, exactly like the single-node service).
    shards:
        Shard count; ``None`` defers to ``SILKMOTH_SHARDS`` and then
        :data:`DEFAULT_SHARDS`.
    transport:
        ``"inline"``, ``"process"`` or ``"socket"``; ``None`` defers to
        ``SILKMOTH_CLUSTER_TRANSPORT`` and then ``"inline"``.
    summary_bits:
        Routing-summary sizing: 0 keeps exact token-hash sets, a
        positive value caps each shard summary at that many Bloom bits;
        ``None`` defers to ``SILKMOTH_SHARD_SUMMARY_BITS``.
    cache_capacity:
        Cluster-level query cache size (0 disables caching).
    compact_dead_fraction:
        Per-shard auto-compaction threshold (as in the service).
    replicas:
        Transport endpoints per logical shard, each holding identical
        state; ``None`` defers to ``SILKMOTH_REPLICAS`` and then 1.
        Reads go to one replica (with failover), mutations to all.
    deadline:
        Per-request shard deadline in seconds; a reply missing the
        deadline fails the replica over.  ``None``/``0`` disables
        (defers to ``SILKMOTH_SHARD_DEADLINE``).
    backoff:
        Base of the exponential pause before each failover attempt,
        capped at :data:`MAX_BACKOFF_SECONDS`; ``None`` defers to
        ``SILKMOTH_FAILOVER_BACKOFF`` and then
        :data:`DEFAULT_BACKOFF`.
    fault_plan:
        Test-only :class:`~repro.cluster.faults.FaultPlan`; wraps every
        replica in a fault-injecting transport.
    wal_dir:
        Base directory for per-replica write-ahead logs (``None`` reads
        ``SILKMOTH_WAL_DIR``; unset disables durability).  Each replica
        logs to ``<wal_dir>/shard<k>-replica<r>``, so a dead replica --
        or a whole restarted process -- can be rebuilt from disk (see
        :meth:`revive` and :meth:`load`).
    """

    def __init__(
        self,
        config: SilkMothConfig,
        *,
        shards: "int | None" = None,
        transport: "str | None" = None,
        summary_bits: "int | None" = None,
        cache_capacity: int = 1024,
        compact_dead_fraction: float = 0.25,
        replicas: "int | None" = None,
        deadline: "float | None" = None,
        backoff: "float | None" = None,
        fault_plan: "FaultPlan | None" = None,
        wal_dir: "str | Path | None" = None,
    ):
        n_shards = resolve_shard_count(shards)
        self._init_common(
            config,
            n_shards,
            resolve_transport_name(transport),
            resolve_summary_bits(summary_bits),
            cache_capacity,
            compact_dead_fraction,
            shard_states=[((), ()) for _ in range(n_shards)],
            replicas=replicas,
            deadline=deadline,
            backoff=backoff,
            fault_plan=fault_plan,
            wal_dir=wal_dir,
        )

    def _init_common(
        self,
        config: SilkMothConfig,
        n_shards: int,
        transport_name: str,
        summary_bits: int,
        cache_capacity: int,
        compact_dead_fraction: float,
        shard_states: list,
        replicas: "int | None" = None,
        deadline: "float | None" = None,
        backoff: "float | None" = None,
        fault_plan: "FaultPlan | None" = None,
        wal_dir: "str | Path | None" = None,
        recover_from_wal: bool = False,
    ) -> None:
        """Shared constructor body (``__init__``, ``from_sets``, ``load``).

        *shard_states* is one ``(raw_sets, deleted_local_ids)`` pair per
        shard; summaries are built here from the live sets' tokens,
        while the shard workers construct (:meth:`_spawn_replicas`).
        Each logical shard gets *replicas* transport endpoints holding
        identical state; *fault_plan* (tests only) wraps every endpoint
        in a :class:`~repro.cluster.faults.FaultyTransport`.  With
        *recover_from_wal* (the :meth:`load` path), replicas whose WAL
        directory holds a log are rebuilt from disk and verified
        against *shard_states* before being trusted.  Every replica has
        answered ready when this returns, and a construction error
        raises from here with every started worker closed.
        """
        self.config = config
        self._tokenizer = Tokenizer(
            kind=config.similarity, q=config.effective_q
        )
        self._transport_name = transport_name
        self._summary_bits = summary_bits
        self._compact_dead_fraction = compact_dead_fraction
        self._replica_count = resolve_replica_count(replicas)
        self._deadline = resolve_deadline(deadline)
        self._backoff = resolve_backoff(backoff)
        self._fault_plan = fault_plan
        #: Base directory for per-replica WALs (None = no durability).
        self._wal_dir = resolve_wal_dir(wal_dir)
        #: From-disk replica rebuilds that failed verification and fell
        #: back to coordinator state (observability for the tests).
        self.wal_revive_fallbacks = 0
        self._summaries: list[ShardSummary] = []

        def build_summaries() -> None:
            for raw_sets, deleted in shard_states:
                summary = ShardSummary(make_token_summary(summary_bits))
                dead = set(deleted)
                for local_id, elements in enumerate(raw_sets):
                    if local_id in dead:
                        continue
                    summary.add_set_tokens(
                        *element_token_hashes(self._tokenizer, elements)
                    )
                self._summaries.append(summary)

        endpoints = self._spawn_replicas(
            [
                (k, r, raw_sets, deleted)
                for k, (raw_sets, deleted) in enumerate(shard_states)
                for r in range(self._replica_count)
            ],
            try_recover=recover_from_wal,
            meanwhile=build_summaries,
        )
        #: Per shard: its replica transports (identical state each).
        self._shards: "list[list[ShardTransport]]" = [
            endpoints[k * self._replica_count:(k + 1) * self._replica_count]
            for k in range(n_shards)
        ]
        #: Per shard, per replica: whether the endpoint is serving.
        self._healthy: "list[list[bool]]" = [
            [True] * self._replica_count for _ in range(n_shards)
        ]
        #: Global id -> (shard index, shard-local id); append-only.
        self._placement: list[tuple[int, int]] = []
        #: Global id -> raw element texts (the coordinator's directory).
        self._raw: list[tuple[str, ...]] = []
        #: Globally tombstoned ids.
        self._deleted: set[int] = set()
        #: Per shard: local id -> global id (grows with every add/move).
        self._shard_to_global: list[list[int]] = [[] for _ in range(n_shards)]
        #: Per shard: live sets currently placed there.
        self._shard_live: list[int] = [0] * n_shards
        #: Per shard: shard-local write generation (mutations routed there).
        self._shard_generations: list[int] = [0] * n_shards
        #: Cluster-wide write generation gating the query cache.
        self.generation = 0
        self.cache = LRUQueryCache(cache_capacity)
        self.stats = ClusterStats()
        #: Funnel aggregate over merged cluster passes (engine parity).
        self.run_stats = RunStats()
        #: The most recent query's fan-out verdict (observability).
        self.last_pass: "ClusterPassStats | None" = None
        self._config_fp = config_fingerprint(config)
        self._certificate = routing_certificate_holds(config)
        self._closed = False

    # ------------------------------------------------------------------
    # Construction helpers and lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def from_sets(
        cls,
        sets: Sequence[Sequence[str]],
        config: SilkMothConfig,
        **kwargs,
    ) -> "SilkMothCluster":
        """Build a cluster from raw sets, placed round-robin.

        Equivalent to constructing empty and calling :meth:`add_set`
        per set, but ships each shard its whole slice in one transport
        handshake.  Keyword arguments are the constructor's.
        """
        n_shards = resolve_shard_count(kwargs.pop("shards", None))
        transport_name = resolve_transport_name(kwargs.pop("transport", None))
        summary_bits = resolve_summary_bits(kwargs.pop("summary_bits", None))
        cache_capacity = kwargs.pop("cache_capacity", 1024)
        compact_dead_fraction = kwargs.pop("compact_dead_fraction", 0.25)
        replicas = kwargs.pop("replicas", None)
        deadline = kwargs.pop("deadline", None)
        backoff = kwargs.pop("backoff", None)
        fault_plan = kwargs.pop("fault_plan", None)
        wal_dir = kwargs.pop("wal_dir", None)
        if kwargs:
            # Validate BEFORE spawning: a typoed keyword must not leak
            # unreachable (hence unclosable) worker processes.
            raise TypeError(f"unexpected arguments: {sorted(kwargs)}")
        shard_sets: list[list[Sequence[str]]] = [[] for _ in range(n_shards)]
        placement: list[tuple[int, int]] = []
        for gid, elements in enumerate(sets):
            shard = gid % n_shards
            placement.append((shard, len(shard_sets[shard])))
            shard_sets[shard].append(tuple(elements))
        cluster = cls.__new__(cls)
        cluster._init_common(
            config,
            n_shards,
            transport_name,
            summary_bits,
            cache_capacity,
            compact_dead_fraction,
            shard_states=[(shard_sets[k], ()) for k in range(n_shards)],
            replicas=replicas,
            deadline=deadline,
            backoff=backoff,
            fault_plan=fault_plan,
            wal_dir=wal_dir,
        )
        cluster._placement = placement
        cluster._raw = [tuple(elements) for elements in sets]
        for gid, (shard, local) in enumerate(placement):
            cluster._shard_to_global[shard].append(gid)
            cluster._shard_live[shard] += 1
        return cluster

    def close(self) -> None:
        """Shut every shard transport down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for replicas in self._shards:
            for transport in replicas:
                transport.close()

    def __enter__(self) -> "SilkMothCluster":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close every shard."""
        self.close()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """How many logical shards the cluster holds."""
        return len(self._shards)

    @property
    def transport_name(self) -> str:
        """The transport every shard runs behind."""
        return self._transport_name

    @property
    def routing_enabled(self) -> bool:
        """Whether the pair-level routing certificate holds (else
        every query broadcasts to all shards)."""
        return self._certificate

    @property
    def total_sets(self) -> int:
        """Global ids ever assigned (live sets plus tombstones)."""
        return len(self._placement)

    def __len__(self) -> int:
        """Number of live sets across all shards."""
        return len(self._placement) - len(self._deleted)

    def live_set_ids(self) -> list[int]:
        """Global ids of the live sets, ascending."""
        return [
            gid
            for gid in range(len(self._placement))
            if gid not in self._deleted
        ]

    def is_live(self, set_id: int) -> bool:
        """Whether *set_id* addresses a live global set."""
        return (
            0 <= set_id < len(self._placement) and set_id not in self._deleted
        )

    def raw_set(self, set_id: int) -> tuple[str, ...]:
        """The raw element texts stored under global id *set_id*."""
        return self._raw[set_id]

    def placement_of(self, set_id: int) -> tuple[int, int]:
        """The (shard, local id) a global set currently lives at."""
        return self._placement[set_id]

    # ------------------------------------------------------------------
    # Replication and failover
    # ------------------------------------------------------------------
    def _replica_wal_dir(self, shard: int, replica: int) -> "str | None":
        """The WAL directory a replica logs to (None = WAL disabled)."""
        if self._wal_dir is None:
            return None
        return str(self._wal_dir / f"shard{shard}-replica{replica}")

    def _make_replica(
        self, shard: int, replica: int, raw_sets, deleted,
        recover: bool = False,
    ) -> ShardTransport:
        """Start one transport endpoint holding *shard*'s state.

        The endpoint may still be constructing when this returns (see
        :func:`~repro.cluster.transport.make_transport`).  With
        *recover*, it ignores *raw_sets*/*deleted* and rebuilds its
        service from its own WAL directory -- the caller is responsible
        for verifying the result against coordinator state before
        trusting it (see :meth:`_spawn_replicas`).
        """
        inner = make_transport(
            self._transport_name,
            self.config,
            raw_sets,
            deleted,
            self._compact_dead_fraction,
            wal_dir=self._replica_wal_dir(shard, replica),
            recover=recover,
        )
        if self._fault_plan is not None:
            return FaultyTransport(inner, self._fault_plan, shard, replica)
        return inner

    def _recovered_as_expected(
        self, transport: ShardTransport, raw_sets, deleted
    ) -> bool:
        """Whether a from-disk replica came up holding exactly this state.

        Any failure along the recovery path -- corrupt log, dead
        worker, mismatched config -- reads as "no": recovery must never
        be able to make things worse than a plain rebuild.
        """
        try:
            transport.await_ready()
            exported_sets, exported_deleted, _ = transport.request(
                "export", timeout=self._deadline
            )
        except Exception:  # noqa: BLE001 - recovery must never block a rebuild
            return False
        return [tuple(s) for s in exported_sets] == [
            tuple(elements) for elements in raw_sets
        ] and sorted(exported_deleted) == sorted(deleted)

    def _spawn_replicas(
        self,
        slots: list,
        try_recover: bool = False,
        meanwhile: "Callable[[], None] | None" = None,
    ) -> "list[ShardTransport]":
        """Build the replicas in *slots*, all at once; one endpoint each.

        *slots* is a list of ``(shard, replica, raw_sets, deleted)``.
        Construction is two-phase: every endpoint is *started* (worker
        forked, construction tuple shipped) before the first one is
        *awaited*, so the workers tokenise and index concurrently, and
        *meanwhile* -- coordinator-side work that needs no shard -- runs
        in between, while they do.  Every endpoint has answered ready
        by the time this returns; if any step raises, every endpoint
        started here is closed first, so a failed construction leaves
        no orphaned worker behind.

        With *try_recover*, a replica whose WAL directory holds a log
        starts from disk instead.  That path is trust-but-verify: the
        recovered replica's exported state must equal the expected
        ``(raw_sets, deleted)`` exactly, or the endpoint is discarded
        and rebuilt from that authoritative state (counted in
        :attr:`wal_revive_fallbacks`).
        """
        endpoints: "list[ShardTransport]" = []
        recovering: "list[bool]" = []
        try:
            for shard, replica, raw_sets, deleted in slots:
                wal_dir = self._replica_wal_dir(shard, replica)
                recover = (
                    try_recover
                    and wal_dir is not None
                    and wal_directory_in_use(wal_dir)
                )
                if recover:
                    try:
                        endpoints.append(
                            self._make_replica(
                                shard, replica, (), (), recover=True
                            )
                        )
                    except Exception:  # noqa: BLE001 - inline shards recover here
                        self.wal_revive_fallbacks += 1
                        recover = False
                if not recover:
                    endpoints.append(
                        self._make_replica(shard, replica, raw_sets, deleted)
                    )
                recovering.append(recover)
            if meanwhile is not None:
                meanwhile()
            for i, (shard, replica, raw_sets, deleted) in enumerate(slots):
                if recovering[i] and not self._recovered_as_expected(
                    endpoints[i], raw_sets, deleted
                ):
                    _close_quietly(endpoints[i])
                    self.wal_revive_fallbacks += 1
                    endpoints[i] = self._make_replica(
                        shard, replica, raw_sets, deleted
                    )
                endpoints[i].await_ready()
        except BaseException:
            for transport in endpoints:
                _close_quietly(transport)
            raise
        return endpoints

    @property
    def replica_count(self) -> int:
        """Configured replicas per logical shard."""
        return self._replica_count

    def replica_health(self) -> list[list[bool]]:
        """Per shard, per replica: whether the endpoint is serving."""
        return [list(flags) for flags in self._healthy]

    def lost_shards(self) -> list[int]:
        """Shards with zero healthy replicas (their data is unreachable
        until :meth:`revive`)."""
        return [
            k for k in range(self.n_shards) if not any(self._healthy[k])
        ]

    def _healthy_replica_indices(self, shard: int) -> list[int]:
        """Healthy replica indices for *shard*, lowest first."""
        return [
            r for r, healthy in enumerate(self._healthy[shard]) if healthy
        ]

    def _primary_replica(self, shard: int) -> "int | None":
        """The replica reads go to: lowest healthy index, or ``None``."""
        for r, healthy in enumerate(self._healthy[shard]):
            if healthy:
                return r
        return None

    def _mark_replica_dead(self, shard: int, replica: int) -> None:
        """Record one replica's death and tear its transport down.

        The submit/collect protocol has no request ids, so after any
        failure (crash, hang, lost reply) the connection is
        desynchronised and must never be reused: the endpoint is killed
        and excluded from routing until :meth:`revive` rebuilds it.
        """
        if not self._healthy[shard][replica]:
            return
        self._healthy[shard][replica] = False
        self.stats.replicas_lost += 1
        observe_replica_death()
        try:
            self._shards[shard][replica].kill()
        except Exception:  # noqa: BLE001 - endpoint is already being dropped
            pass

    def _degraded(self, shards) -> ClusterDegradedError:
        """Record one degraded-shard failure and build its error."""
        self.stats.degraded_failures += 1
        observe_degraded()
        return ClusterDegradedError(shards)

    def _failover_request(self, shard: int, command: str, payload: tuple):
        """Retry *command* on *shard*'s surviving replicas, in order.

        Sleeps an exponentially growing backoff (base
        :attr:`_backoff`, capped at :data:`MAX_BACKOFF_SECONDS`) before
        each attempt, so a flapping shard is not hammered.  Each failed
        attempt kills that replica, so the loop is bounded by the
        replica count.  Returns the reply, or :data:`_LOST` when no
        replica survives.
        """
        attempt = 0
        while True:
            live = self._healthy_replica_indices(shard)
            if not live:
                return _LOST
            attempt += 1
            pause = min(
                self._backoff * (2 ** (attempt - 1)), MAX_BACKOFF_SECONDS
            )
            if pause > 0:
                time.sleep(pause)
            replica = live[0]
            self.stats.failovers += 1
            observe_failover()
            with span("cluster.failover", shard=shard, replica=replica):
                try:
                    transport = self._shards[shard][replica]
                    transport.submit(command, payload)
                    return transport.collect(
                        request_deadline(self._deadline, command, payload)
                    )
                except Exception:  # noqa: BLE001 - replica is dead, try next
                    observe_transport_error()
                    self._mark_replica_dead(shard, replica)

    def _fanout_read(
        self,
        command: str,
        payloads: list,
        selected: list,
        allow_lost: bool = False,
        collect_span: bool = False,
    ) -> list:
        """Pipelined read fan-out with per-shard failover.

        Submits *command* to each selected shard's primary replica (so
        worker shards compute concurrently), then collects in order
        under the per-request deadline (:func:`request_deadline`).  A
        failed submit or collect marks that replica dead and retries
        synchronously on the next one via :meth:`_failover_request`.
        Shards with no surviving replica either raise
        :class:`ClusterDegradedError` (default) or yield ``None``
        replies (*allow_lost*, for best-effort reads like
        :meth:`shard_infos`).  *collect_span* wraps the collect
        phase -- and only it -- in a ``cluster.collect`` span: the
        submit phase must stay outside so an inline shard (which
        executes at submit time) parents its spans under the caller's
        query span, not the transport wait.
        """
        pending: "list[tuple[int, int | None, tuple]]" = []
        for k, payload in zip(selected, payloads):
            replica = self._primary_replica(k)
            if replica is not None:
                try:
                    self._shards[k][replica].submit(command, payload)
                except Exception:  # noqa: BLE001 - failover at collect time
                    observe_transport_error()
                    self._mark_replica_dead(k, replica)
                    replica = None
            pending.append((k, replica, payload))
        replies = []
        lost = []
        with span("cluster.collect", shards=len(selected)) if collect_span \
                else nullcontext():
            for k, replica, payload in pending:
                reply = _LOST
                if replica is not None:
                    try:
                        reply = self._shards[k][replica].collect(
                            request_deadline(self._deadline, command, payload)
                        )
                    except Exception:  # noqa: BLE001 - fail over below
                        observe_transport_error()
                        self._mark_replica_dead(k, replica)
                if reply is _LOST:
                    reply = self._failover_request(k, command, payload)
                if reply is _LOST:
                    lost.append(k)
                    replies.append(None)
                else:
                    replies.append(reply)
        if lost and not allow_lost:
            raise self._degraded(lost)
        return replies

    def _mutate_shard(self, shard: int, command: str, payload: tuple):
        """Apply one mutation to every healthy replica of *shard*.

        Replicas stay in lockstep by receiving identical mutation
        streams in identical order, so all successful replies are
        interchangeable; the first one is returned.  At least one
        success commits the mutation (failed replicas are marked dead
        -- they are rebuilt from coordinator state by :meth:`revive`,
        never trusted again as-is).  Zero successes raises
        :class:`ClusterDegradedError` and the caller must leave every
        piece of coordinator bookkeeping untouched.
        """
        submitted = []
        for replica in self._healthy_replica_indices(shard):
            try:
                self._shards[shard][replica].submit(command, payload)
                submitted.append(replica)
            except Exception:  # noqa: BLE001 - replica lost before the write
                observe_transport_error()
                self._mark_replica_dead(shard, replica)
        reply = _LOST
        for replica in submitted:
            try:
                value = self._shards[shard][replica].collect(self._deadline)
            except Exception:  # noqa: BLE001 - replica lost mid-write
                observe_transport_error()
                self._mark_replica_dead(shard, replica)
                continue
            if reply is _LOST:
                reply = value
        if reply is _LOST:
            raise self._degraded([shard])
        return reply

    def _shard_state(self, shard: int) -> tuple[list, list]:
        """(raw sets, deleted local ids) for *shard*, coordinator-side.

        Exactly the state :meth:`save` writes for the shard, derived
        from the directory alone -- which is why a dead replica can be
        rebuilt without any surviving replica's help.
        """
        table = self._shard_to_global[shard]
        sets = [tuple(self._raw[gid]) for gid in table]
        deleted = [
            local
            for local, gid in enumerate(table)
            if gid in self._deleted or self._placement[gid] != (shard, local)
        ]
        return sets, deleted

    def revive(
        self, shard: "int | None" = None, from_disk: bool = False
    ) -> int:
        """Rebuild dead replicas from the coordinator's directory.

        The coordinator's raw texts and placement table are exactly the
        state :meth:`save` would snapshot, so a fresh replica built
        from them is in lockstep with any survivor: same sets, same
        local ids, same tombstones.  Restricts to *shard* when given,
        else sweeps every shard; returns how many replicas came back.

        With *from_disk* (and a configured WAL directory) each dead
        replica first tries to recover from its own write-ahead log;
        the recovered state is verified against the coordinator's
        directory and silently replaced by a plain rebuild on any
        mismatch (see :attr:`wal_revive_fallbacks`), so the flag can
        only change *how* a replica comes back, never *what* it holds.

        The replacements are built concurrently
        (:meth:`_spawn_replicas`) and all-or-nothing: if one fails to
        construct, every replacement is closed, the error propagates
        and the replicas stay dead.
        """
        self._ensure_open()
        targets = range(self.n_shards) if shard is None else [shard]
        slots = []
        for k in targets:
            state = None
            for r in range(self._replica_count):
                if self._healthy[k][r]:
                    continue
                if state is None:
                    state = self._shard_state(k)
                _close_quietly(self._shards[k][r])
                slots.append((k, r, *state))
        endpoints = self._spawn_replicas(slots, try_recover=from_disk)
        for (k, r, _, _), transport in zip(slots, endpoints):
            self._shards[k][r] = transport
            self._healthy[k][r] = True
            self.stats.replicas_revived += 1
        return len(slots)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _mutated(self) -> None:
        self.generation += 1
        if len(self.cache):
            self.stats.invalidations += 1

    def _pick_shard(self) -> int:
        """Placement policy: the least-loaded *reachable* shard.

        Ties break toward the lowest index, so from an empty or
        balanced cluster this degenerates to round-robin and keeps
        converging back to balance as removals skew the shards.  Shards
        with no healthy replica cannot take writes and are excluded;
        with every shard lost there is nowhere to place anything and
        the degraded error names them all.
        """
        candidates = [
            k
            for k in range(self.n_shards)
            if self._primary_replica(k) is not None
        ]
        if not candidates:
            raise self._degraded(range(self.n_shards))
        return min(candidates, key=lambda k: (self._shard_live[k], k))

    def _place_new_set(self, elements: Sequence[str]) -> tuple[int, int]:
        """Add *elements* to the best reachable shard; (shard, local).

        If the picked shard's last replicas die during the write, the
        placement simply retries on the next reachable shard -- each
        failure shrinks the candidate set, so the loop is bounded and
        ends in :class:`ClusterDegradedError` only when *no* shard can
        take the write.  Nothing here touches coordinator bookkeeping;
        callers commit only after a shard accepted the set.
        """
        payload = (tuple(elements),)
        while True:
            shard = self._pick_shard()
            try:
                return shard, self._mutate_shard(shard, "add", payload)
            except ClusterDegradedError:
                continue

    def _commit_add(self, shard: int, local: int, elements) -> int:
        """Coordinator bookkeeping for one accepted append; global id."""
        gid = len(self._placement)
        self._placement.append((shard, local))
        self._raw.append(tuple(elements))
        self._shard_to_global[shard].append(gid)
        self._shard_live[shard] += 1
        self._shard_generations[shard] += 1
        self._summaries[shard].add_set_tokens(
            *element_token_hashes(self._tokenizer, elements)
        )
        return gid

    def add_set(self, elements: Sequence[str]) -> int:
        """Append one set; returns its global id (searchable immediately)."""
        self._ensure_open()
        shard, local = self._place_new_set(elements)
        gid = self._commit_add(shard, local, elements)
        self.stats.adds += 1
        self._mutated()
        return gid

    def remove_set(self, set_id: int) -> None:
        """Tombstone one global set; it stops matching immediately.

        The tombstone commits only after at least one replica of the
        owning shard applied it -- a fully lost shard raises
        :class:`ClusterDegradedError` with the coordinator's id space
        untouched, so it never drifts from what surviving shards hold.
        """
        self._ensure_open()
        if not self.is_live(set_id):
            raise KeyError(f"set_id {set_id} is not a live set")
        shard, local = self._placement[set_id]
        self._mutate_shard(shard, "remove", (local,))
        self._deleted.add(set_id)
        self._shard_live[shard] -= 1
        self._shard_generations[shard] += 1
        self.stats.removes += 1
        self._mutated()

    def update_set(self, set_id: int, elements: Sequence[str]) -> int:
        """Replace one set's contents; returns its fresh global id.

        Tombstone-plus-append, mirroring the single-node service: the
        old id is never reused, and the new record may land on a
        different shard (the placement policy decides).  Failure
        atomicity: if the owning shard cannot apply the remove, nothing
        changes; if the remove applied but *every* shard then refused
        the append, the tombstone still commits (the surviving shards
        did drop the old record) and the degraded error propagates --
        either way :meth:`live_set_ids` agrees with the shards.
        """
        self._ensure_open()
        if not self.is_live(set_id):
            raise KeyError(f"set_id {set_id} is not a live set")
        old_shard, old_local = self._placement[set_id]
        self._mutate_shard(old_shard, "remove", (old_local,))
        self._deleted.add(set_id)
        self._shard_live[old_shard] -= 1
        self._shard_generations[old_shard] += 1
        try:
            shard, local = self._place_new_set(elements)
        except ClusterDegradedError:
            self.stats.removes += 1
            self._mutated()
            raise
        gid = self._commit_add(shard, local, elements)
        self.stats.updates += 1
        self._mutated()
        return gid

    def compact(self) -> int:
        """Compact every shard, rebalance placement, rebuild summaries.

        Returns the number of postings dropped across shards.  Global
        ids never change -- rebalancing only rewrites the coordinator's
        placement table -- so cached results and stored ids stay
        meaningful (the query cache is generation-gated anyway).
        """
        self._ensure_open()
        shards = list(range(self.n_shards))
        lost = self.lost_shards()
        if lost:
            # Compaction touches every shard's data; with a shard fully
            # lost it cannot be performed consistently.
            raise self._degraded(lost)
        removed = 0
        for k in shards:
            removed += self._mutate_shard(k, "compact", ())
        moves = self.rebalance()
        self._refresh_summaries()
        if removed or moves:
            self.stats.compactions += 1
        return removed

    def rebalance(self) -> int:
        """Even out live-set counts across shards; returns sets moved.

        Moves the youngest live sets off the most loaded shard onto the
        least loaded one until the spread is at most one set.  A move
        is remove-here-add-there under the *same* global id, so nothing
        observable changes -- results, ids and scores are identical
        before and after.
        """
        self._ensure_open()
        moves = 0
        while True:
            # Only reachable shards participate: a lost shard can
            # neither give up sets nor take new ones until revived.
            candidates = [
                k
                for k in range(self.n_shards)
                if self._primary_replica(k) is not None
            ]
            if len(candidates) < 2:
                break
            heaviest = max(
                candidates, key=lambda k: (self._shard_live[k], -k)
            )
            lightest = min(
                candidates, key=lambda k: (self._shard_live[k], k)
            )
            if self._shard_live[heaviest] - self._shard_live[lightest] <= 1:
                break
            gid = self._youngest_live_on(heaviest)
            old_local = self._placement[gid][1]
            try:
                local = self._mutate_shard(lightest, "add", (self._raw[gid],))
            except ClusterDegradedError:
                continue  # destination just died; recompute candidates
            # Commit the new home BEFORE retiring the old copy: if the
            # source shard dies mid-remove, its replicas revive from the
            # updated placement table, so the stale copy never returns.
            self._placement[gid] = (lightest, local)
            self._shard_to_global[lightest].append(gid)
            self._shard_live[heaviest] -= 1
            self._shard_live[lightest] += 1
            self._shard_generations[heaviest] += 1
            self._shard_generations[lightest] += 1
            self._summaries[lightest].add_set_tokens(
                *element_token_hashes(self._tokenizer, self._raw[gid])
            )
            moves += 1
            try:
                self._mutate_shard(heaviest, "remove", (old_local,))
            except ClusterDegradedError:
                continue  # source fully lost; stale copy dies with it
        self.stats.rebalance_moves += moves
        return moves

    def _youngest_live_on(self, shard: int) -> int:
        """The highest global id currently live on *shard*."""
        table = self._shard_to_global[shard]
        for local in range(len(table) - 1, -1, -1):
            gid = table[local]
            if gid not in self._deleted and self._placement[gid] == (
                shard,
                local,
            ):
                return gid
        raise RuntimeError(f"shard {shard} has no live sets to move")

    def _refresh_summaries(self) -> None:
        """Rebuild every routing summary from the shards' live tokens."""
        shards = list(range(self.n_shards))
        replies = self._fanout_read("summary", [() for _ in shards], shards)
        for summary, (hashes, has_empty) in zip(self._summaries, replies):
            summary.rebuild(hashes, has_empty, self._summary_bits)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("cluster is closed")

    def _route(self, probe: ReferenceProbe) -> list[int]:
        """Shard indices that might answer *probe* (all, sans certificate)."""
        if not self._certificate:
            return list(range(self.n_shards))
        return [
            k
            for k, summary in enumerate(self._summaries)
            if summary.may_answer(probe)
        ]

    def _search_cold(
        self, elements: Sequence[str]
    ) -> tuple[list[SearchResult], ClusterPassStats]:
        """One uncached cluster search pass: a block of one reference."""
        ((results, cluster_pass),) = self._search_block(
            [(elements, None, None)], "search"
        )
        return results, cluster_pass

    def _search_block(
        self, passes: list, command: str
    ) -> list[tuple[list[SearchResult], ClusterPassStats]]:
        """Route, fan out, merge: uncached passes, one request per shard.

        Each pass is ``(elements, skip_gid, first_locals)``: the member
        set to skip and, per shard, the local id its pass starts at (a
        discovery floor in that shard's numbering; ``None`` = 0).  A
        shard whose table ends below its floor is not routed.  Each
        routed shard gets one *command* request: ``search`` carries a
        lone pass, :data:`BLOCK_COMMAND` its items in pass order.  Each
        pass then merges on its own; one ``(results, pass)`` per pass.
        """
        self._ensure_open()
        started = time.perf_counter()
        failovers_before = self.stats.failovers
        block = command == BLOCK_COMMAND
        # Per shard: (pass index, shard payload item), in pass order.
        items: list = [[] for _ in range(self.n_shards)]
        with span(
            "cluster.query", shards=self.n_shards, references=len(passes)
        ) as query_span:
            for i, (elements, skip_gid, first_locals) in enumerate(passes):
                if len(elements) == 0:
                    # The single-node engine answers an empty reference
                    # without running any stage; so does the cluster.
                    continue
                if self._certificate:
                    with span("cluster.route"):
                        probe = reference_probe(self._tokenizer, elements)
                        selected = self._route(probe)
                else:
                    # Broadcast mode never consults the probe; skip hashing.
                    selected = list(range(self.n_shards))
                if first_locals is None:
                    first_locals = [0] * self.n_shards
                else:
                    selected = [
                        k
                        for k in selected
                        if first_locals[k] < len(self._shard_to_global[k])
                    ]
                skip_shard, skip_local = None, None
                if skip_gid is not None and self.is_live(skip_gid):
                    skip_shard, skip_local = self._placement[skip_gid]
                payload = tuple(elements)
                for k in selected:
                    skip = skip_local if k == skip_shard else None
                    items[k].append((i, (payload, skip, first_locals[k])))
            shards = [k for k in range(self.n_shards) if items[k]]
            query_span.set_attr("routed", sum(map(len, items)))
            # The shard parents its spans directly under this query
            # span, so a fanned-out pass stays one coherent trace tree
            # even across worker processes.
            trace_ctx = current_context()
            payloads = [
                (tuple(item for _, item in items[k]), trace_ctx)
                if block
                else items[k][0][1] + (trace_ctx,)
                for k in shards
            ]
            replies = self._fanout_read(
                command, payloads, shards, collect_span=True
            )
        per_pass: list = [[] for _ in passes]
        for k, reply in zip(shards, replies):
            for (i, _), (results, pass_stats, shard_spans) in zip(
                items[k], reply if block else [reply]
            ):
                ingest(shard_spans)
                per_pass[i].append((k, results, pass_stats))
        merged = []
        for (elements, _, _), shard_replies in zip(passes, per_pass):
            merged_results: list[SearchResult] = []
            for k, results, _ in shard_replies:
                table = self._shard_to_global[k]
                for result in results:
                    merged_results.append(
                        SearchResult(
                            set_id=table[result.set_id],
                            score=result.score,
                            relatedness=result.relatedness,
                        )
                    )
            merged_results.sort(key=lambda result: result.set_id)
            per_shard = [(k, stats) for k, _, stats in shard_replies]
            cluster_pass = ClusterPassStats.from_shards(
                self.n_shards, per_shard
            )
            self.stats.record_routing(cluster_pass)
            self.last_pass = cluster_pass
            merged.append((merged_results, cluster_pass))
            if len(elements) == 0:
                continue
            for _, pass_stats in per_shard:
                self.stats.record_pass(pass_stats)
            self.run_stats.add(cluster_pass.merged)
            observe_slow_cluster_query(
                time.perf_counter() - started,
                cluster_pass,
                failovers=self.stats.failovers - failovers_before,
                lost_shards=self.lost_shards(),
            )
        return merged

    def search(self, elements: Sequence[str]) -> list[SearchResult]:
        """All live sets related to the raw reference *elements*.

        Semantics, caching and result ordering match
        :meth:`repro.service.SilkMothService.search`; set ids are
        global ids.
        """
        with span("service.query") as query_span:
            key = (reference_fingerprint(elements), self._config_fp)
            started = time.perf_counter()
            with span("cache.probe"):
                cached = self.cache.get(key, self.generation)
            if cached is not None:
                query_span.set_attr("cache", "hit")
                self.stats.record_query(time.perf_counter() - started, True)
                return list(cached)
            query_span.set_attr("cache", "miss")
            results, _ = self._search_cold(elements)
            self.cache.put(key, self.generation, tuple(results))
            self.stats.record_query(time.perf_counter() - started, False)
            return results

    def search_many(
        self, references: Sequence[Sequence[str]]
    ) -> list[list[SearchResult]]:
        """Answer a batch of references; one result list per input.

        Intra-batch duplicates collapse onto one computation and cached
        references skip the fan-out, as in the single-node service; the
        cold remainder runs one fan-out each (parallelism comes from
        the shards, not an extra coordinator-side pool).
        """
        self.stats.batches += 1
        plan = plan_batch(references)
        self.stats.batch_queries_deduplicated += plan.duplicates
        answers: dict[str, tuple[SearchResult, ...]] = {}
        for fingerprint, elements in plan.unique.items():
            started = time.perf_counter()
            cached = self.cache.get(
                (fingerprint, self._config_fp), self.generation
            )
            if cached is not None:
                answers[fingerprint] = cached
                self.stats.record_query(time.perf_counter() - started, True)
                continue
            results, _ = self._search_cold(elements)
            answers[fingerprint] = tuple(results)
            self.cache.put(
                (fingerprint, self._config_fp),
                self.generation,
                answers[fingerprint],
            )
            self.stats.record_query(time.perf_counter() - started, False)
        output: list[list[SearchResult]] = []
        emitted: set[str] = set()
        for fingerprint in plan.fingerprints:
            if fingerprint in emitted:
                self.stats.record_query(0.0, True)
            emitted.add(fingerprint)
            output.append(list(answers[fingerprint]))
        return output

    def discover(self) -> list[DiscoveryResult]:
        """RELATED SET DISCOVERY over the cluster's own live sets.

        One routed pass per live reference, with the shard holding
        the reference skipping the self pair locally and the shared
        :func:`~repro.pipeline.driver.keep_discovery_pair` rule applied
        to the merged global rows -- output is identical (ids, scores,
        ordering) to :meth:`repro.SilkMoth.discover` on the same data.
        Bypasses the query cache: member-set passes carry self-skip
        semantics that external queries must never inherit.

        Under the symmetric SET-SIMILARITY metric a reference's pass
        probes only the sets after it, as on a single node
        (:func:`~repro.pipeline.driver.discovery_floor`).  The floor is
        a global id and shards number their sets locally, so each
        routed shard is sent the first local id that can hold a global
        id at or above it: one bisect over the running maximum of the
        shard's local -> global table.  Every local id below that maps
        to a global id under the floor, so the cut is always sound; it
        is also tight while the table ascends, which :meth:`rebalance`
        ends (it appends an old global id to the lightest shard) --
        from then on a shard may surface a few sets from under the
        floor, and the pair rule on the merged rows, which the floor
        only anticipates, drops them.  A reference with no global id at
        or above its floor (the last one) runs no pass at all.

        Passes travel in blocks of :data:`DISCOVERY_BLOCK`, so the
        coordinator waits on each routed shard once per block, not once
        per reference; a failover retries the whole block, floors
        included, on the next replica.
        """
        symmetric = self.config.metric is Relatedness.SIMILARITY
        output: list[DiscoveryResult] = []
        with span("cluster.discover", live_sets=len(self)):
            running_max = [
                list(accumulate(table, max)) for table in self._shard_to_global
            ]
            passes = []
            for gid in range(len(self._placement)):
                if gid in self._deleted:
                    continue
                floor = discovery_floor(
                    gid, self_mode=True, symmetric=symmetric
                )
                if floor >= len(self._placement):
                    continue
                first_locals = None
                if floor:
                    first_locals = [
                        bisect_left(running, floor) for running in running_max
                    ]
                passes.append((self._raw[gid], gid, first_locals))
            answers = []
            for start in range(0, len(passes), DISCOVERY_BLOCK):
                block = passes[start:start + DISCOVERY_BLOCK]
                answers += self._search_block(block, BLOCK_COMMAND)
            for (_, gid, _), (results, _) in zip(passes, answers):
                for result in results:
                    if keep_discovery_pair(
                        gid, result.set_id, self_mode=True, symmetric=symmetric
                    ):
                        output.append(
                            DiscoveryResult(
                                reference_id=gid,
                                set_id=result.set_id,
                                score=result.score,
                                relatedness=result.relatedness,
                            )
                        )
        return output

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_infos(self) -> list[dict]:
        """One descriptor per shard (sizes, generation, decision, stats).

        Best-effort: a shard with no surviving replica contributes a
        stub entry (``{"lost": True, ...}``) instead of failing the
        whole introspection call -- operators need :meth:`info` *most*
        while the cluster is degraded.
        """
        self._ensure_open()
        shards = list(range(self.n_shards))
        replies = self._fanout_read(
            "info", [() for _ in shards], shards, allow_lost=True
        )
        return [
            reply
            if reply is not None
            else {"lost": True, "shard_index": k, "live_sets": 0}
            for k, reply in zip(shards, replies)
        ]

    def merged_sketches(self):
        """Cluster-wide quantile sketches: coordinator plus every shard.

        Fans the ``sketches`` command out to every shard (best-effort:
        lost shards are skipped) and folds the replies together with the
        coordinator's own process-global registry through
        :func:`repro.obs.sketch.merge_payloads`.  Payloads are
        deduplicated by producing pid, so under the inline transport --
        where every shard shares this process's registry -- recordings
        are counted exactly once, and the merged result equals what one
        process recording everything would hold.
        """
        self._ensure_open()
        shards = list(range(self.n_shards))
        replies = self._fanout_read(
            "sketches", [() for _ in shards], shards, allow_lost=True
        )
        return merge_payloads(
            [get_sketch_registry().to_payload(), *replies]
        )

    def health(self) -> dict:
        """One cluster-wide health rollup (``silkmoth-health/1``).

        Merges the cross-shard latency sketches, cache hit rates, WAL
        positions, replica health and failover history, the slowlog
        state, and any currently-degraded shards into a single JSON
        document; ``status`` is ``"degraded"`` as soon as one shard has
        zero healthy replicas, else ``"ok"``.  Best-effort by design:
        asking for health must work *especially* while degraded.
        """
        self._ensure_open()
        shards = list(range(self.n_shards))
        wal_replies = self._fanout_read(
            "wal", [() for _ in shards], shards, allow_lost=True
        )
        positions_known = sum(
            1 for position in wal_replies if position is not None
        )
        health_flags = self.replica_health()
        lost = self.lost_shards()
        slowlog = get_slowlog()
        replication = self.stats.replication_summary()
        replication.update(
            {
                "healthy_replicas": sum(sum(flags) for flags in health_flags),
                "total_replicas": sum(len(flags) for flags in health_flags),
                "lost_shards": lost,
            }
        )
        return {
            "schema": "silkmoth-health/1",
            "kind": "cluster",
            "status": "degraded" if lost else "ok",
            "shards": self.n_shards,
            "transport": self._transport_name,
            "generation": self.generation,
            "live_sets": len(self),
            "cache": self.stats.cache_summary(),
            "latency": quantile_summary(self.merged_sketches()),
            "wal": {
                "enabled": positions_known > 0,
                "positions_known": positions_known,
            },
            "replication": replication,
            "slowlog": {
                "captured": len(slowlog),
                "threshold_ms": slowlog_ms(),
            },
        }

    def info(self) -> dict:
        """Cluster descriptor: shards, routing state, merged profile."""
        infos = self.shard_infos()
        profiles = []
        for entry in infos:
            profile = entry.get("decision", {}).get("profile")
            if isinstance(profile, dict):
                profiles.append(IndexProfile.from_dict(profile))
        payload = {
            "shards": self.n_shards,
            "transport": self._transport_name,
            "routing_certificate": self._certificate,
            "summary": {
                "kind": self._summaries[0].tokens.kind,
                "bits": self._summary_bits,
                "tokens_per_shard": [
                    len(summary.tokens) for summary in self._summaries
                ],
                "has_empty": [
                    summary.has_empty for summary in self._summaries
                ],
            },
            "total_sets": len(self._placement),
            "live_sets": len(self),
            "tombstones": len(self._deleted),
            "generation": self.generation,
            "shard_live_sets": list(self._shard_live),
            "per_shard": infos,
            "stats": self.stats.to_dict(),
        }
        if profiles:
            payload["profile"] = merge_profiles(profiles).to_dict()
        return payload

    def plan_report(self) -> str:
        """Human-readable per-shard planner summary (``cluster info``).

        Each shard line ends with the planner's own reason for the
        shard's scheme (shards plan against their own index slice), so
        "why does this shard sign differently" needs no
        :meth:`shard_infos` dig.
        """
        lines = [
            f"cluster: {self.n_shards} shard(s), transport "
            f"{self._transport_name}, routing "
            + (
                "by summary intersection (pair certificate holds)"
                if self._certificate
                else "broadcast (no pair certificate for this config)"
            )
        ]
        for k, entry in enumerate(self.shard_infos()):
            decision = entry.get("decision", {})
            scheme = decision.get("scheme", "?")
            why = next(
                (
                    reason.removeprefix(f"scheme={scheme} ")
                    for reason in decision.get("reasons", ())
                    if reason.startswith("scheme=")
                ),
                "unknown",
            )
            lines.append(
                f"  shard {k}: {entry.get('live_sets', 0)} live set(s), "
                f"scheme={scheme}, "
                f"full_scan={decision.get('full_scan', '?')}; "
                f"scheme {why}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _shard_file_names(self, manifest: Path) -> list[str]:
        """Per-shard snapshot file names, derived from the manifest's."""
        stem = manifest.stem
        suffix = manifest.suffix or ".json"
        return [f"{stem}-shard{k}{suffix}" for k in range(self.n_shards)]

    def save(self, path: "str | Path") -> None:
        """Write the cluster manifest plus one v3 snapshot per shard.

        Shard files land next to the manifest as
        ``<stem>-shard<k><suffix>``.  Everything is written from the
        coordinator's directory (raw texts, placement), so no shard
        round-trip is needed and a snapshot of a remote-transport
        cluster costs the same as an inline one.

        When the cluster runs with a WAL directory, every shard is also
        asked to checkpoint its log first, so the manifest's recorded
        positions describe freshly-truncated logs; a shard with no
        healthy replica simply records ``None`` (the snapshot itself
        never depends on shard round-trips).
        """
        self._ensure_open()
        manifest = Path(path)
        wal_positions: "list[dict | None] | None" = None
        if self._wal_dir is not None:
            wal_positions = []
            for k in range(self.n_shards):
                try:
                    wal_positions.append(self._mutate_shard(k, "checkpoint", ()))
                except ClusterDegradedError:
                    wal_positions.append(None)
        shard_files = self._shard_file_names(manifest)
        kind = self.config.similarity
        q = self.config.effective_q
        for k, name in enumerate(shard_files):
            table = self._shard_to_global[k]
            sets = [list(self._raw[gid]) for gid in table]
            deleted_locals = [
                local
                for local, gid in enumerate(table)
                if gid in self._deleted or self._placement[gid] != (k, local)
            ]
            save_shard_snapshot(
                manifest.parent / name,
                kind=kind,
                q=q,
                sets=sets,
                deleted=deleted_locals,
                shard_meta={
                    "shard_index": k,
                    "local_to_global": list(table),
                    "generation": self._shard_generations[k],
                },
            )
        save_cluster_manifest(
            manifest,
            kind=kind,
            q=q,
            shard_files=shard_files,
            metadata={
                "placement": [list(pair) for pair in self._placement],
                "deleted": sorted(self._deleted),
                "generation": self.generation,
                "shard_generations": list(self._shard_generations),
                "config_fingerprint": self._config_fp,
                "summary_bits": self._summary_bits,
                "transport": self._transport_name,
                "stats": self.stats.to_dict(),
                **(
                    {
                        "wal": {
                            "dir": str(self._wal_dir),
                            "positions": wal_positions,
                        }
                    }
                    if self._wal_dir is not None
                    else {}
                ),
            },
        )
        self.stats.snapshots_saved += 1

    @classmethod
    def load(
        cls,
        path: "str | Path",
        config: SilkMothConfig,
        *,
        transport: "str | None" = None,
        summary_bits: "int | None" = None,
        cache_capacity: int = 1024,
        compact_dead_fraction: float = 0.25,
        replicas: "int | None" = None,
        deadline: "float | None" = None,
        backoff: "float | None" = None,
        fault_plan: "FaultPlan | None" = None,
        wal_dir: "str | Path | None" = None,
    ) -> "SilkMothCluster":
        """Rebuild a cluster from a manifest written by :meth:`save`.

        The shard count comes from the manifest; the transport (and the
        replica count) may differ from what the snapshot was taken
        under (execution concerns, not data).  Tokenizer settings are
        validated against *config*; lifetime stats are restored only
        under the same config fingerprint (the write generation always
        is).

        With *wal_dir* (or ``SILKMOTH_WAL_DIR``) each replica first
        tries to recover from its own write-ahead log instead of being
        fed the snapshot state over the transport.  The coordinator's
        manifest stays authoritative: the recovered state is verified
        against the snapshot and any divergence (a log that ran ahead
        of the manifest, or got corrupted) is discarded in favour of a
        plain rebuild, counted in :attr:`wal_revive_fallbacks`.
        :meth:`save` checkpoints every shard log, so after a clean
        save/close cycle recovery and snapshot agree by construction.
        """
        manifest = Path(path)
        payload = load_cluster_manifest(manifest)
        kind = SimilarityKind(payload["similarity"])
        q = int(payload["q"])
        if kind is not config.similarity:
            raise ValueError(
                f"{manifest}: cluster was tokenised for {kind.value!r}, "
                f"expected {config.similarity.value!r}"
            )
        if q != config.effective_q:
            raise ValueError(
                f"{manifest}: cluster was tokenised with q={q}, "
                f"expected q={config.effective_q}"
            )
        shard_states = []
        tables = []
        for name in payload["shards"]:
            collection, shard_meta = load_shard_snapshot(
                manifest.parent / name, expected_kind=kind, expected_q=q
            )
            raw_sets = [
                tuple(element.text for element in record.elements)
                for record in collection
            ]
            shard_states.append((raw_sets, sorted(collection.deleted_ids)))
            table = shard_meta.get("local_to_global", [])
            if len(table) != len(raw_sets):
                raise ValueError(
                    f"{name}: local_to_global maps {len(table)} sets, "
                    f"snapshot holds {len(raw_sets)}"
                )
            tables.append([int(gid) for gid in table])
        meta = payload.get("cluster", {})
        placement_raw = meta.get("placement", [])
        cluster = cls.__new__(cls)
        cluster._init_common(
            config,
            len(shard_states),
            resolve_transport_name(transport),
            resolve_summary_bits(
                summary_bits
                if summary_bits is not None
                else meta.get("summary_bits", 0)
            ),
            cache_capacity,
            compact_dead_fraction,
            shard_states=shard_states,
            replicas=replicas,
            deadline=deadline,
            backoff=backoff,
            fault_plan=fault_plan,
            wal_dir=wal_dir,
            recover_from_wal=resolve_wal_dir(wal_dir) is not None,
        )
        cluster._placement = [
            (int(pair[0]), int(pair[1])) for pair in placement_raw
        ]
        cluster._deleted = {int(gid) for gid in meta.get("deleted", [])}
        cluster._shard_to_global = tables
        cluster._raw = [()] * len(cluster._placement)
        for k, table in enumerate(tables):
            for local, gid in enumerate(table):
                if not 0 <= gid < len(cluster._placement):
                    raise ValueError(
                        f"shard {k} maps local {local} to unknown global "
                        f"id {gid}"
                    )
                if cluster._placement[gid] == (k, local):
                    cluster._raw[gid] = tuple(shard_states[k][0][local])
        for gid, (shard, local) in enumerate(cluster._placement):
            if (
                not 0 <= shard < len(tables)
                or not 0 <= local < len(tables[shard])
                or tables[shard][local] != gid
            ):
                raise ValueError(
                    f"{manifest}: placement maps global id {gid} to "
                    f"shard {shard} local {local}, but that slot does "
                    "not hold it"
                )
            if gid not in cluster._deleted:
                cluster._shard_live[shard] += 1
        generations = meta.get("shard_generations", [])
        if len(generations) == len(shard_states):
            cluster._shard_generations = [int(g) for g in generations]
        cluster.generation = int(meta.get("generation", 0))
        saved_stats = meta.get("stats")
        if (
            isinstance(saved_stats, dict)
            and meta.get("config_fingerprint") == cluster._config_fp
        ):
            cluster.stats = ClusterStats.from_dict(saved_stats)
        return cluster
