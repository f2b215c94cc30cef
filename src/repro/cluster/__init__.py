"""`repro.cluster`: multi-shard discovery and serving.

The single-node engine scales one machine; this package shards the
indexed collection across N workers -- each a full
engine/index/backend/planner stack behind a pluggable transport -- and
coordinates them through :class:`SilkMothCluster`, which keeps the
single-node search/discover/service API and its exactness guarantees.
Every pass reaches every shard; only a discovery floor skips one.

Layout:

* :mod:`repro.cluster.coordinator` -- the cluster itself: placement
  and rebalancing policy, fan-out/merge, mutations, discovery,
  snapshots and introspection, over the three parts below;
* :mod:`repro.cluster.directory` -- the global id space: placement,
  raw texts, tombstones, and the one derivation of a shard's state
  (every replica is built from it);
* :mod:`repro.cluster.replicas` -- the replica grid: endpoint
  construction, health, failover reads, lockstep writes;
* :mod:`repro.cluster.shard` -- the shard-side command host (a wrapped
  single-node service);
* :mod:`repro.cluster.transport` -- inline / process / socket shard
  transports speaking one submit/collect protocol;
* :mod:`repro.cluster.faults` -- deterministic fault injection (seeded
  fault plans + a fault-injecting transport wrapper) for the chaos
  suites;
* :mod:`repro.cluster.stats` -- merged pass stats plus fan-out,
  rebalancing and failover counters.
"""

from repro.cluster.coordinator import SilkMothCluster
from repro.cluster.faults import (
    FAULT_KINDS,
    WAL_CRASH_POINTS,
    CrashInjected,
    CrashPlan,
    FaultEvent,
    FaultPlan,
    FaultyTransport,
    crash_at,
    crash_point,
)
from repro.cluster.replicas import ClusterDegradedError
from repro.cluster.stats import ClusterPassStats, ClusterStats
from repro.cluster.transport import (
    KNOWN_TRANSPORTS,
    ShardTimeoutError,
    ShardTransportError,
)

__all__ = [
    "FAULT_KINDS",
    "KNOWN_TRANSPORTS",
    "WAL_CRASH_POINTS",
    "ClusterDegradedError",
    "ClusterPassStats",
    "ClusterStats",
    "CrashInjected",
    "CrashPlan",
    "FaultEvent",
    "FaultPlan",
    "FaultyTransport",
    "crash_at",
    "crash_point",
    "ShardTimeoutError",
    "ShardTransportError",
    "SilkMothCluster",
]
