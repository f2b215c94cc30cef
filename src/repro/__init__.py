"""SilkMoth reproduction: exact related-set search with maximum matching
constraints (Deng, Kim, Madden, Stonebraker -- VLDB 2017).

Quickstart::

    from repro import SetCollection, SilkMoth, SilkMothConfig
    from repro import Relatedness, SimilarityKind

    data = [["77 Massachusetts Avenue Boston MA", "Fifth Street Seattle MA"],
            ["77 Mass Ave Boston MA", "5th St Seattle WA"]]
    collection = SetCollection.from_strings(data)
    config = SilkMothConfig(metric=Relatedness.SIMILARITY, delta=0.3)
    engine = SilkMoth(collection, config)
    pairs = engine.discover()

Online serving: :class:`repro.service.SilkMothService` wraps the same
engine as a long-lived mutable system -- add/remove/update sets between
queries (answers stay exact via tombstones), serve hot references from
an LRU query cache, batch queries with deduplication and process
fan-out, and snapshot/restore the whole service::

    from repro import SilkMothConfig, SilkMothService

    service = SilkMothService(SilkMothConfig(delta=0.5))
    service.add_set(["77 Mass Ave Boston MA"])
    hits = service.search(["77 Massachusetts Avenue Boston MA"])
    service.remove_set(0)            # next query is exact again
    service.save("service.json")     # version-2 snapshot

Beyond one machine: :class:`repro.cluster.SilkMothCluster` shards the
collection across N workers (in-process, worker processes, or socket
endpoints), sends each query to every shard, where it is pruned by its
signature as on one node, and merges the shard results into answers
bit-identical to the single-node engine's::

    from repro import SilkMothCluster, SilkMothConfig

    cluster = SilkMothCluster.from_sets(data, SilkMothConfig(delta=0.3),
                                        shards=4, transport="process")
    pairs = cluster.discover()       # == SilkMoth(...).discover()
    cluster.save("cluster.json")     # manifest + per-shard v3 snapshots
    cluster.close()

The public surface re-exports the pieces most users need; the
subpackages (:mod:`repro.signatures`, :mod:`repro.filters`,
:mod:`repro.matching`, ...) expose the internals for experimentation.
"""

from repro.core.clustering import cluster_related_sets, representatives
from repro.core.config import Relatedness, SilkMothConfig
from repro.core.engine import DiscoveryResult, SearchResult, SilkMoth
from repro.core.explain import Explanation, explain, format_explanation
from repro.core.parallel import parallel_discover
from repro.core.partitioned import partitioned_discover
from repro.core.records import ElementRecord, SetCollection, SetRecord
from repro.core.topk import TopKResult, TopKSearcher
from repro.matching.assignment import AlignedPair, matching_alignment
from repro.sim.functions import (
    SimilarityFunction,
    SimilarityKind,
    cosine,
    dice,
    eds,
    jaccard,
    neds,
    overlap,
)
from repro.sim.levenshtein import levenshtein
from repro.matching.score import matching_score
from repro.backends import available_backends, get_backend
from repro.baselines.brute_force import brute_force_discover, brute_force_search
from repro.baselines.fastjoin import FastJoinBaseline
from repro.pipeline import QueryPlan
from repro.planner import IndexProfile, PlannerDecision, format_decision, plan_query
from repro.service import ServiceStats, SilkMothService
from repro.cluster import ClusterPassStats, ClusterStats, SilkMothCluster

__version__ = "1.0.0"

__all__ = [
    "AlignedPair",
    "ClusterPassStats",
    "ClusterStats",
    "DiscoveryResult",
    "ElementRecord",
    "Explanation",
    "FastJoinBaseline",
    "IndexProfile",
    "PlannerDecision",
    "QueryPlan",
    "Relatedness",
    "SearchResult",
    "ServiceStats",
    "SetCollection",
    "SetRecord",
    "SilkMoth",
    "SilkMothCluster",
    "SilkMothConfig",
    "SilkMothService",
    "SimilarityFunction",
    "SimilarityKind",
    "TopKResult",
    "TopKSearcher",
    "available_backends",
    "brute_force_discover",
    "brute_force_search",
    "cluster_related_sets",
    "cosine",
    "dice",
    "eds",
    "explain",
    "format_decision",
    "format_explanation",
    "get_backend",
    "plan_query",
    "jaccard",
    "levenshtein",
    "matching_alignment",
    "matching_score",
    "neds",
    "overlap",
    "parallel_discover",
    "partitioned_discover",
    "representatives",
    "__version__",
]
