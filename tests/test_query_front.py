"""The shared query front: one ``search``/``search_many`` for both servers.

:class:`repro.service.SilkMothService` and
:class:`repro.cluster.SilkMothCluster` answer queries through the same
:class:`repro.service.batch.QueryFront`, so the same program -- mutations,
a batch with intra-batch duplicates, cache hits, more cold references
than one block holds -- must give the same answers (equal to brute
force) and the same serving counters on both.  On the cluster a cold
batch travels in blocks: ``ceil(N / PASS_BLOCK)`` ``search`` requests
per shard, not one per reference.

Both fronts share the write rule too (maintained answers), but not
the certificates: the service signs in its own vocabulary, so an add
keeps every answer, marking stale only those whose signature it hits;
every cluster answer is uncertified (shards sign in theirs), so any
add drops it.  A remove deletes its row from the answers holding it on
both.
"""

from __future__ import annotations

import math

import pytest

from repro.baselines.brute_force import brute_force_search
from repro.cluster import SilkMothCluster
from repro.cluster.coordinator import PASS_BLOCK
from repro.core.config import SilkMothConfig
from repro.obs.metrics import get_registry, reset_registry
from repro.service import SilkMothService

CONFIG = SilkMothConfig(delta=0.3)

WORDS = ["ash", "bay", "elm", "fir", "oak", "sky", "yew", "ivy"]

DATA = [
    [f"{WORDS[i % 8]} {WORDS[(i * 3 + 1) % 8]}", f"{WORDS[(i + 2) % 8]} common"]
    for i in range(16)
]

#: More distinct cold references than one block holds.
COLD = [DATA[i] + [WORDS[i // 8]] for i in range(PASS_BLOCK + 5)]

#: The serving counters both fronts must agree on.
COUNTERS = (
    "queries",
    "cache_hits",
    "cache_misses",
    "batches",
    "batch_queries_deduplicated",
    "invalidations",
)


def _brute_ids(service: SilkMothService, elements) -> list:
    reference = service.collection.query_set(elements)
    found = brute_force_search(reference, service.collection, CONFIG)
    return sorted(r.set_id for r in found)


def _program(server) -> list:
    """Mutate, then search and batch; every answer as (id, score) rows.

    On the service, every answer is also checked against brute force
    over the live sets at the moment it was given.
    """
    answers = []

    def ask(references, rows_list):
        if isinstance(server, SilkMothService):
            for elements, rows in zip(references, rows_list):
                assert [r.set_id for r in rows] == _brute_ids(server, elements)
        answers.extend(rows_list)

    server.remove_set(3)
    server.update_set(5, ["ash bay", "oak common"])
    server.add_set(["elm sky", "fir common"])
    ask([COLD[0]], [server.search(COLD[0])])
    ask([COLD[0]], [server.search(COLD[0])])  # a cache hit
    batch = [COLD[1], COLD[0], *COLD[2:], COLD[2], list(reversed(COLD[3]))]
    ask(batch, server.search_many(batch))  # hits, duplicates, > 1 block
    ask(batch[:4], server.search_many(batch[:4]))  # all cached now
    server.remove_set(0)
    # The remove deletes set 0's row; every answer stays cached.
    ask(COLD[:3], server.search_many(COLD[:3]))
    return [[(r.set_id, r.score) for r in rows] for rows in answers]


def _add_leg(server) -> tuple:
    """An add sharing no token with COLD[0], then COLD[0] again.

    Returns (answers cached before the add, answers it dropped,
    answers it marked stale, cache hits and passes of the search, the
    answer's rows).
    """
    cached = len(server.cache)
    server.add_set(["oak sky", "yew ivy"])
    dropped = cached - len(server.cache)
    stale = sum(entry.stale for entry in server.cache._entries.values())
    hits, misses = server.stats.cache_hits, server.stats.cache_misses
    refreshes = server.stats.cache_refreshes
    rows = server.search(COLD[0])
    if isinstance(server, SilkMothService):
        assert [r.set_id for r in rows] == _brute_ids(server, COLD[0])
    passes = (
        server.stats.cache_misses - misses
        + server.stats.cache_refreshes - refreshes
    )
    return cached, dropped, stale, server.stats.cache_hits - hits, passes, [
        (r.set_id, r.score) for r in rows
    ]


def _mutation_series() -> dict:
    """``silkmoth_mutations_total`` in this process, kind -> count."""
    family = get_registry().get("silkmoth_mutations_total")
    return {} if family is None else {
        labels[0]: child.value for labels, child in family.series()
    }


def _compact_counted(server) -> None:
    """``compact`` is counted exactly when ``stats.compactions`` moves."""
    reset_registry()
    before = server.stats.compactions
    server.compact()
    moved = server.stats.compactions - before
    assert moved == 1
    assert _mutation_series() == {"compact": moved}


@pytest.mark.parametrize(
    "transport, replicas", [("inline", 1), ("process", 1), ("inline", 2)]
)
def test_service_and_cluster_share_one_front(transport, replicas):
    """Same program, same answers (brute force's), same counters, and
    the same ``silkmoth_mutations_total`` series: one per user write,
    on the node that took it -- whatever the replica count, and
    whichever shard compacted on its own meanwhile."""
    service = SilkMothService(CONFIG)
    for elements in DATA:
        service.add_set(elements)
    reset_registry()
    expected = _program(service)
    writes = _mutation_series()
    assert writes == {"add": 1, "remove": 2, "update": 1}
    with SilkMothCluster.from_sets(
        DATA, CONFIG, shards=3, transport=transport, replicas=replicas
    ) as cluster:
        reset_registry()
        assert _program(cluster) == expected
        assert _mutation_series() == writes
        for name in COUNTERS:
            assert getattr(cluster.stats, name) == getattr(service.stats, name)
        # Every distinct reference missed once: the remove of set 0
        # (held by COLD[0]'s answer) dropped nothing.
        assert service.stats.cache_misses == len(COLD)
        cached, dropped, stale, hits, passes, rows = _add_leg(cluster)
        # Uncertified: the add dropped every cached answer, COLD[0]'s too.
        assert dropped == cached == cluster.stats.invalidated_uncertified
        assert (stale, hits, passes) == (0, 0, 1)
        _compact_counted(cluster)
    assert service.stats.cache_hits > 0
    assert service.stats.batch_queries_deduplicated == 2
    # Certified: the add dropped nothing and marked stale only the
    # answers whose signature it hits; COLD[0]'s is not one of them,
    # so its search is a hit with no pass.
    cached_service, dropped, stale, hits, passes, service_rows = _add_leg(
        service
    )
    assert (cached_service, dropped, hits, passes) == (cached, 0, 1, 0)
    assert 0 < stale < cached
    assert service_rows == rows
    assert service.stats.invalidations == 0
    _compact_counted(service)


def test_cold_batch_costs_one_search_request_per_block_per_shard():
    """N cold references: ceil(N / PASS_BLOCK) requests per shard."""
    requests = []

    def count(transport, shard):
        submit = transport.submit

        def counting_submit(command, payload):
            if command == "search":
                requests.append((shard, len(payload[0])))
            submit(command, payload)

        transport.submit = counting_submit

    with SilkMothCluster.from_sets(DATA, CONFIG, shards=2) as cluster:
        for shard in range(cluster.n_shards):
            for r in range(cluster.replica_count):
                count(cluster._replicas.endpoint(shard, r), shard)
        cluster.search_many(COLD)
        assert cluster.stats.shards_routed_total == 2 * len(COLD)
        blocks = math.ceil(len(COLD) / PASS_BLOCK)
        for shard in (0, 1):
            sizes = [n for k, n in requests if k == shard]
            assert len(sizes) == blocks and sum(sizes) == len(COLD)
        del requests[:]
        cluster.search(["ash oak", "bay common"])
        assert sorted(requests) == [(0, 1), (1, 1)]


def test_the_writes_are_written_once():
    """Only the front defines the three writes, and a shard drives an
    engine: nothing under the cluster's shard side comes from the
    service package."""
    import ast
    import inspect

    from repro.cluster import shard
    from repro.service.batch import QueryFront

    for name in ("add_set", "remove_set", "update_set"):
        assert name in vars(QueryFront)
        for server in (SilkMothService, SilkMothCluster):
            assert name not in vars(server), (server.__name__, name)
            assert getattr(server, name) is getattr(QueryFront, name)
    imported = {
        node.module
        for node in ast.walk(ast.parse(inspect.getsource(shard)))
        if isinstance(node, ast.ImportFrom)
    }
    assert not any(module.startswith("repro.service") for module in imported)
    assert not hasattr(shard, "SilkMothService")


def test_a_half_done_update_commits_as_a_remove(monkeypatch):
    """The front's rule for an update whose append fails after its
    remove landed: it counts as a remove, and the error propagates."""
    service = SilkMothService(CONFIG)
    for elements in DATA[:4]:
        service.add_set(elements)
    reset_registry()

    def refused(elements):
        raise RuntimeError("append refused")

    monkeypatch.setattr(service, "_add", refused)
    with pytest.raises(RuntimeError, match="append refused"):
        service.update_set(1, ["oak sky"])
    assert not service.is_live(1)
    assert (service.stats.removes, service.stats.updates) == (1, 0)
    assert service.generation == 5
    assert _mutation_series() == {"remove": 1}
