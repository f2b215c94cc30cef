"""`SilkMothCluster`: related-set serving across shards.

The coordinator keeps the cluster-level query cache and lifetime stats
over two parts: the global id space
(:class:`~repro.cluster.directory.ShardDirectory`) and the replica grid
(:class:`~repro.cluster.replicas.ReplicaSet`).  Shards own everything
else -- each one is a full single-node engine (collection, inverted
index, sim memo, planner decision) behind a
:mod:`~repro.cluster.transport`.  Pruning happens inside each shard,
with the reference's signature, exactly as on a single node.

A query runs in three steps:

1. **fan out** -- submit one ``search`` request carrying the block's
   passes (one for a lone :meth:`search`, up to :data:`PASS_BLOCK` for
   a batch or :meth:`discover`) to every shard, then collect (worker
   shards compute concurrently).  A pass skips only a shard holding
   nothing at or above its floor (symmetric self-discovery);
2. **merge** -- translate shard-local result ids to global ids, sort,
   and sum the shards' :class:`~repro.core.stats.PassStats` into one
   :class:`~repro.cluster.stats.ClusterPassStats`;
3. **cache** -- memoise the answer: the cache, its write rule,
   ``search`` and ``search_many`` are the single-node service's own
   (:class:`~repro.service.batch.QueryFront`).  Shards sign in their
   own vocabularies, so every cluster answer is uncertified: an add
   drops them all; a remove deletes its row from those holding it.

Writes are the single-node service's own too: ``add_set``,
``remove_set`` and ``update_set`` live on the front, and the cluster
supplies only how a set is placed on a shard (``_add``) and tombstoned
there (``_remove``), on the global id space -- ``add`` appends a fresh
global id, ``remove`` tombstones, ``update`` is tombstone-plus-append
-- so a cluster is observably identical to a single-node service fed
the same mutation sequence.  :meth:`compact` additionally
*rebalances*: live sets migrate from overloaded to underloaded shards
(global ids untouched -- only the placement changes).

The directory is the only source of shard state: every replica is
built from it, and a cluster is durable exactly at :meth:`save` --
the manifest it writes is all :meth:`load` trusts.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Sequence

from repro.cluster.directory import ShardDirectory
from repro.cluster.faults import FaultPlan
from repro.cluster.replicas import ClusterDegradedError, ReplicaSet
from repro.cluster.stats import ClusterPassStats, ClusterStats
from repro.core.config import Relatedness, SilkMothConfig
from repro.core.records import is_set_id
from repro.core.results import DiscoveryResult, SearchResult
from repro.core.stats import RunStats
from repro.obs.diag import get_slowlog, observe_slow_cluster_query, slowlog_ms
from repro.obs.instrument import observe_mutation
from repro.obs.sketch import get_sketch_registry, merge_payloads, quantile_summary
from repro.obs.trace import current_context, ingest, span
from repro.pipeline.driver import LocalIds, Pass, run_discovery, search_passes
from repro.planner.cost import IndexProfile, merge_profiles
from repro.service.batch import QueryFront
from repro.service.cache import LRUQueryCache, config_fingerprint

#: Reference passes per ``search`` request, in a serving batch and in
#: discovery alike: each shard gets one request per block; a
#: failover retries it whole.
PASS_BLOCK = 8


class SilkMothCluster(QueryFront):
    """Related-set search/discovery/serving over N sharded engines.

    Parameters
    ----------
    config:
        Engine configuration, shared by every shard (results cached
        under its fingerprint, exactly like the single-node service).
    shards:
        Shard count; ``None`` defers to ``SILKMOTH_SHARDS`` and then 4.
        :meth:`from_sets` and :meth:`load` pass the
        :class:`~repro.cluster.directory.ShardDirectory` to start from
        instead (its shard count is the cluster's).
    transport:
        ``"inline"``, ``"process"`` or ``"socket"``; ``None`` defers to
        ``SILKMOTH_CLUSTER_TRANSPORT`` and then ``"inline"``.
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
        deadline fails the replica over.  ``None`` defers to
        ``SILKMOTH_SHARD_DEADLINE``; ``0`` or less disables.
    backoff:
        Base of the exponential pause before each failover attempt,
        capped at :data:`~repro.cluster.replicas.MAX_BACKOFF_SECONDS`;
        ``None`` defers to ``SILKMOTH_FAILOVER_BACKOFF`` and then 0.05.
    fault_plan:
        Test-only :class:`~repro.cluster.faults.FaultPlan`; wraps every
        replica in a fault-injecting transport.

    Every setting is resolved before any worker starts, and every
    replica has answered ready when the constructor returns (see
    :class:`~repro.cluster.replicas.ReplicaSet`).
    """

    def __init__(
        self,
        config: SilkMothConfig,
        *,
        shards: "int | ShardDirectory | None" = None,
        transport: "str | None" = None,
        cache_capacity: int = 1024,
        compact_dead_fraction: float = 0.25,
        replicas: "int | None" = None,
        deadline: "float | None" = None,
        backoff: "float | None" = None,
        fault_plan: "FaultPlan | None" = None,
    ):
        if isinstance(shards, ShardDirectory):
            directory = shards
        else:
            directory = ShardDirectory(shards)
        self.config = config
        self._directory = directory
        self.stats = ClusterStats()
        self._replicas = ReplicaSet(
            config,
            self.stats,
            directory.n_shards,
            directory.state,
            transport=transport,
            replicas=replicas,
            deadline=deadline,
            backoff=backoff,
            compact_dead_fraction=compact_dead_fraction,
            fault_plan=fault_plan,
        )
        #: Cluster-wide write generation (bumped by every mutation).
        self.generation = 0
        self.cache = LRUQueryCache(cache_capacity)
        #: Funnel aggregate over merged cluster passes (engine parity).
        self.run_stats = RunStats()
        #: The most recent query's fan-out verdict (observability).
        self.last_pass: "ClusterPassStats | None" = None
        self._config_fp = config_fingerprint(config)
        self._closed = False

    # ------------------------------------------------------------------
    # Construction helpers and lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def from_sets(
        cls,
        sets: Sequence[Sequence[str]],
        config: SilkMothConfig,
        *,
        shards: "int | None" = None,
        **kwargs,
    ) -> "SilkMothCluster":
        """Build a cluster from raw sets, placed round-robin.

        Equivalent to constructing empty and calling :meth:`add_set`
        per set, but ships each shard its whole slice in one transport
        handshake.  Keyword arguments are the constructor's.
        """
        directory = ShardDirectory.round_robin(sets, shards)
        return cls(config, shards=directory, **kwargs)

    def close(self) -> None:
        """Shut every shard transport down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._replicas.close()

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
        return self._directory.n_shards

    @property
    def transport_name(self) -> str:
        """The transport every shard runs behind."""
        return self._replicas.transport_name

    @property
    def total_sets(self) -> int:
        """Global ids ever assigned (live sets plus tombstones)."""
        return len(self._directory.placement)

    def __len__(self) -> int:
        """Number of live sets across all shards."""
        return self.total_sets - len(self._directory.deleted)

    def live_set_ids(self) -> list[int]:
        """Global ids of the live sets, ascending."""
        deleted = self._directory.deleted
        return [gid for gid in range(self.total_sets) if gid not in deleted]

    def is_live(self, set_id: int) -> bool:
        """Whether *set_id* addresses a live global set."""
        return (
            is_set_id(set_id)
            and 0 <= set_id < self.total_sets
            and set_id not in self._directory.deleted
        )

    def raw_set(self, set_id: int) -> tuple[str, ...]:
        """The raw element texts stored under global id *set_id*.

        Tombstoned ids still answer; an id never assigned (negative or
        past the last one) raises :class:`KeyError`.
        """
        return self._directory.raw[self._directory.assigned(set_id)]

    def placement_of(self, set_id: int) -> tuple[int, int]:
        """The (shard, local id) a global set currently lives at
        (:class:`KeyError` for an id never assigned)."""
        return self._directory.placement[self._directory.assigned(set_id)]

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    @property
    def replica_count(self) -> int:
        """Configured replicas per logical shard."""
        return self._replicas.count

    def replica_health(self) -> list[list[bool]]:
        """Per shard, per replica: whether the endpoint is serving."""
        return self._replicas.health()

    def lost_shards(self) -> list[int]:
        """Shards with zero healthy replicas (their data is unreachable
        until :meth:`revive`)."""
        return self._replicas.lost()

    def revive(self, shard: "int | None" = None) -> int:
        """Rebuild dead replicas from the coordinator's directory.

        The directory's state for a shard is exactly what :meth:`save`
        would snapshot, so a fresh replica built from it is in lockstep
        with any survivor: same sets, same local ids, same tombstones.
        Restricts to *shard* when given (anything but an ``int`` index
        in range -- a ``bool`` included -- is a :class:`ValueError`
        naming the valid range), else sweeps every shard; returns how
        many replicas came back.  The replacements are built
        concurrently and all-or-nothing
        (:meth:`~repro.cluster.replicas.ReplicaSet.revive`).
        """
        self._ensure_open()
        if shard is not None and (
            type(shard) is not int or not 0 <= shard < self.n_shards
        ):
            raise ValueError(
                f"shard {shard!r} out of range: valid shards are "
                f"0..{self.n_shards - 1}"
            )
        revived = self._replicas.revive(
            range(self.n_shards) if shard is None else [shard],
            self._directory.state,
        )
        self.stats.replicas_revived += revived
        return revived

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _pick_shard(self) -> int:
        """Placement policy: the least-loaded *reachable* shard.

        Ties break toward the lowest index, so from an empty or
        balanced cluster this degenerates to round-robin and keeps
        converging back to balance as removals skew the shards.  Shards
        with no healthy replica cannot take writes and are excluded;
        with every shard lost there is nowhere to place anything and
        the degraded error names them all.
        """
        candidates = self._replicas.reachable()
        if not candidates:
            raise self._replicas.degraded(range(self.n_shards))
        live = self._directory.shard_live
        return min(candidates, key=lambda k: (live[k], k))

    def _add(self, elements: list[str]) -> tuple:
        """Add the set to the best reachable shard, then give it a
        global id: ``(gid, ())`` -- every cluster answer is uncertified.

        If the picked shard's last replicas die during the write, the
        placement retries on the next reachable shard -- each failure
        shrinks the candidate set, so the loop is bounded and ends in
        :class:`ClusterDegradedError` only when *no* shard can take the
        write.  The directory records the set only once a shard took it.
        """
        self._ensure_open()
        while True:
            shard = self._pick_shard()
            try:
                local = self._replicas.mutate(shard, "add", (tuple(elements),))
            except ClusterDegradedError:
                continue
            return self._directory.append(shard, local, elements), ()

    def _remove(self, set_id: int) -> None:
        """Tombstone live *set_id* on its shard, then in the directory.

        The tombstone commits only after at least one replica of the
        owning shard applied it -- a fully lost shard raises
        :class:`ClusterDegradedError` with the coordinator's id space
        untouched, so it never drifts from what surviving shards hold.
        """
        self._ensure_open()
        shard, local = self._directory.placement[set_id]
        self._replicas.mutate(shard, "remove", (local,))
        self._directory.tombstone(set_id)

    def compact(self) -> int:
        """Compact every shard, then rebalance placement.

        Returns the number of postings dropped across shards.  Global
        ids never change -- rebalancing only rewrites the directory's
        placement -- so cached results and stored ids stay meaningful:
        no cached answer changes.
        """
        self._ensure_open()
        lost = self.lost_shards()
        if lost:
            # Compaction touches every shard's data; with a shard fully
            # lost it cannot be performed consistently.
            raise self._replicas.degraded(lost)
        removed = 0
        for k in range(self.n_shards):
            removed += self._replicas.mutate(k, "compact", ())
        moves = self.rebalance()
        if removed or moves:
            self.stats.compactions += 1
            observe_mutation("compact")
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
        directory = self._directory
        live = directory.shard_live
        moves = 0
        while True:
            # Only reachable shards participate: a lost shard can
            # neither give up sets nor take new ones until revived.
            candidates = self._replicas.reachable()
            if len(candidates) < 2:
                break
            heaviest = max(candidates, key=lambda k: (live[k], -k))
            lightest = min(candidates, key=lambda k: (live[k], k))
            if live[heaviest] - live[lightest] <= 1:
                break
            gid = directory.youngest_live_on(heaviest)
            old_local = directory.placement[gid][1]
            elements = directory.raw[gid]
            try:
                local = self._replicas.mutate(lightest, "add", (elements,))
            except ClusterDegradedError:
                continue  # destination just died; recompute candidates
            # Commit the new home BEFORE retiring the old copy: if the
            # source shard dies mid-remove, its replicas revive from the
            # updated placement, so the stale copy never returns.
            directory.move(gid, lightest, local)
            moves += 1
            try:
                self._replicas.mutate(heaviest, "remove", (old_local,))
            except ClusterDegradedError:
                continue  # source fully lost; stale copy dies with it
        self.stats.rebalance_moves += moves
        return moves

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("cluster is closed")

    def _block_size(self, processes: "int | None") -> int:
        """A serving batch travels in discovery's blocks."""
        return PASS_BLOCK

    def _next_set_id(self) -> int:
        return self.total_sets

    def _run_cold(
        self,
        references: Sequence[Sequence[str]],
        processes: "int | None",
        floor: int = 0,
    ) -> list[tuple[list[SearchResult], None]]:
        """Uncached cluster passes for a block of external references;
        every answer uncertified (shards sign in their own vocabularies),
        so none ever goes stale."""
        return [
            (results, None)
            for results, _ in self._search_block(
                search_passes(len(references), floor), references
            )
        ]

    def _search_block(
        self,
        passes: Sequence[Pass],
        references: Sequence[Sequence[str]],
        shard_ids: "list[LocalIds] | None" = None,
    ) -> list[tuple[list[SearchResult], ClusterPassStats]]:
        """The cluster runner's block: fan out, merge.

        Each ``(reference_id, skip, floor)`` pass (global ids; the
        reference is ``references[reference_id]``) is translated into
        every shard's local ids through *shard_ids*, the shards'
        :class:`~repro.pipeline.driver.LocalIds` (built here when not
        given); a shard with nothing at or above the floor is skipped.
        Each shard with a pass to run gets one ``search`` request carrying
        its ``(elements, skip_local, first_local)`` items in pass order.
        Each pass then merges on its own; one ``(results, pass)`` per
        pass.  The slowlog charges each pass an equal share of the
        block's wall clock, and the block's failovers to its first
        logged pass only.
        """
        self._ensure_open()
        if shard_ids is None:
            shard_ids = self._directory.local_ids()
        started = time.perf_counter()
        failovers_before = self.stats.failovers
        # Per shard: (pass index, shard payload item), in pass order.
        items: list = [[] for _ in range(self.n_shards)]
        with span(
            "cluster.query", shards=self.n_shards, references=len(passes)
        ) as query_span:
            for i, (reference_id, skip, floor) in enumerate(passes):
                elements = references[reference_id]
                if len(elements) == 0:
                    # The single-node engine answers an empty reference
                    # without running any stage; so does the cluster.
                    continue
                payload = tuple(elements)
                for k, ids in enumerate(shard_ids):
                    local = ids.local_pass(skip, floor)
                    if local is not None:
                        items[k].append((i, (payload, *local)))
            shards = [k for k in range(self.n_shards) if items[k]]
            query_span.set_attr("routed", sum(map(len, items)))
            # The shard parents its spans directly under this query
            # span, so a fanned-out pass stays one coherent trace tree
            # even across worker processes.
            trace_ctx = current_context()
            payloads = [
                (tuple(item for _, item in items[k]), trace_ctx)
                for k in shards
            ]
            replies = self._replicas.read(
                "search", payloads, shards, collect_span=True
            )
        share = (time.perf_counter() - started) / len(passes)
        failovers = self.stats.failovers - failovers_before
        per_pass: list = [[] for _ in passes]
        for k, reply in zip(shards, replies):
            for (i, _), (results, pass_stats, shard_spans) in zip(
                items[k], reply
            ):
                ingest(shard_spans)
                per_pass[i].append((k, results, pass_stats))
        merged = []
        for (reference_id, _, _), shard_replies in zip(passes, per_pass):
            merged_results: list[SearchResult] = []
            for k, results, _ in shard_replies:
                merged_results += shard_ids[k].to_global(results)
            merged_results.sort(key=lambda result: result.set_id)
            per_shard = [(k, stats) for k, _, stats in shard_replies]
            cluster_pass = ClusterPassStats.from_shards(
                self.n_shards, per_shard
            )
            self.stats.record_routing(cluster_pass)
            self.last_pass = cluster_pass
            merged.append((merged_results, cluster_pass))
            if len(references[reference_id]) == 0:
                continue
            for _, pass_stats in per_shard:
                self.stats.record_pass(pass_stats)
            self.run_stats.add(cluster_pass.merged)
            observe_slow_cluster_query(
                share,
                cluster_pass,
                failovers=failovers,
                lost_shards=self.lost_shards(),
            )
            failovers = 0
        return merged

    def discover(self) -> list[DiscoveryResult]:
        """RELATED SET DISCOVERY over the cluster's own live sets.

        The one schedule of :func:`repro.pipeline.driver.run_discovery`
        over the cluster runner: the live references' passes travel in
        blocks of :data:`PASS_BLOCK`, so the coordinator waits on each
        shard once per block, not once per reference; a failover
        retries the whole block, floors included, on the next replica.
        The shard holding a reference skips the self pair locally, each
        shard starts at its own translation of the global floor
        (:class:`~repro.pipeline.driver.LocalIds`, which stays sound
        once :meth:`rebalance` disorders a table) and the pair rule
        applies to the merged global rows -- output is identical (ids,
        scores, ordering) to :meth:`repro.SilkMoth.discover` on the
        same data.  Bypasses the query cache: member-set passes carry
        self-skip semantics that external queries must never inherit.
        """
        shard_ids = self._directory.local_ids()

        def run_blocks(passes):
            """The cluster runner: the passes in blocks of PASS_BLOCK."""
            answers = []
            for start in range(0, len(passes), PASS_BLOCK):
                answers += self._search_block(
                    passes[start:start + PASS_BLOCK],
                    self._directory.raw,
                    shard_ids,
                )
            return answers

        with span("cluster.discover", live_sets=len(self)):
            return run_discovery(
                run_blocks,
                self.live_set_ids(),
                n_sets=self.total_sets,
                self_mode=True,
                symmetric=self.config.metric is Relatedness.SIMILARITY,
            )

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
        replies = self._replicas.read_all("info", allow_lost=True)
        return [
            reply
            if reply is not None
            else {"lost": True, "shard_index": k, "live_sets": 0}
            for k, reply in enumerate(replies)
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
        replies = self._replicas.read_all("sketches", allow_lost=True)
        return merge_payloads(
            [get_sketch_registry().to_payload(), *replies]
        )

    def health(self) -> dict:
        """One cluster-wide health rollup (``silkmoth-health/1``).

        Merges the cross-shard latency sketches, cache hit rates,
        replica health and failover history, the slowlog state, and any
        currently-degraded shards into a single JSON document; it has
        no ``wal`` section (a cluster is durable at :meth:`save`, not
        through a log).  ``status`` is ``"degraded"`` as soon as one
        shard has zero healthy replicas, else ``"ok"``.  Best-effort by
        design: asking for health must work *especially* while degraded.
        """
        self._ensure_open()
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
            "transport": self.transport_name,
            "generation": self.generation,
            "live_sets": len(self),
            "cache": self.stats.cache_summary(),
            "latency": quantile_summary(self.merged_sketches()),
            "replication": replication,
            "slowlog": {
                "captured": len(slowlog),
                "threshold_ms": slowlog_ms(),
            },
        }

    def info(self) -> dict:
        """Cluster descriptor: shards, id space, merged profile."""
        infos = self.shard_infos()
        profiles = []
        for entry in infos:
            profile = entry.get("decision", {}).get("profile")
            if isinstance(profile, dict):
                profiles.append(IndexProfile.from_dict(profile))
        payload = {
            "shards": self.n_shards,
            "transport": self.transport_name,
            "total_sets": self.total_sets,
            "live_sets": len(self),
            "tombstones": len(self._directory.deleted),
            "generation": self.generation,
            "shard_live_sets": list(self._directory.shard_live),
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
            f"{self.transport_name}"
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
    def save(self, path: "str | Path") -> None:
        """Write the cluster manifest plus one v3 snapshot per shard.

        Shard files land next to the manifest as
        ``<stem>-shard<k><suffix>``.  Everything is written from the
        directory (raw texts, placement), so no shard round-trip is
        needed and a snapshot of a remote-transport cluster costs the
        same as an inline one -- a degraded cluster saves too.
        """
        self._ensure_open()
        self._directory.write(
            Path(path),
            kind=self.config.similarity,
            q=self.config.effective_q,
            metadata={
                "generation": self.generation,
                "config_fingerprint": self._config_fp,
                "transport": self.transport_name,
                "stats": self.stats.to_dict(),
            },
        )
        self.stats.snapshots_saved += 1

    @classmethod
    def load(
        cls, path: "str | Path", config: SilkMothConfig, **kwargs
    ) -> "SilkMothCluster":
        """Rebuild a cluster from a manifest written by :meth:`save`.

        The shard count comes from the manifest; the transport (and the
        replica count) may differ from what the snapshot was taken
        under (execution concerns, not data).  Tokenizer settings are
        validated against *config*; lifetime stats are restored only
        under the same config fingerprint (the write generation always
        is).  Keyword arguments are the constructor's, ``shards``
        excepted.  Every replica is built from the manifest's directory;
        keys older manifests carry beyond it (a ``wal`` section among
        them) are ignored.
        """
        directory, meta = ShardDirectory.read(Path(path), config)
        cluster = cls(config, shards=directory, **kwargs)
        cluster.generation = int(meta.get("generation", 0))
        saved_stats = meta.get("stats")
        if (
            isinstance(saved_stats, dict)
            and meta.get("config_fingerprint") == cluster._config_fp
        ):
            cluster.stats = cluster._replicas.stats = ClusterStats.from_dict(
                saved_stats
            )
        return cluster
