"""Triangular self-discovery: probing only the sets after the reference.

Under the symmetric SET-SIMILARITY metric a discovery pass carries a
candidate floor (:func:`repro.pipeline.driver.discovery_floor`): the
unordered pair {A, B}, A < B, is found by A's pass, so B's pass never
looks at A.  The floor may change how much work a pass does and nothing
else.  This suite pins that from three sides:

* ``discover()`` rows equal brute force and equal the *both-sides
  oracle* -- every reference searched against the whole collection
  through the public API (``search(ref, skip_set=id)``), the mirrored
  half dropped afterwards by ``keep_discovery_pair``, which is what
  every driver did before the floor existed -- as full rows, in order,
  bit for bit, across similarity kinds, filter toggles, the
  full-scan fallback, tombstones, compaction, empty elements and an
  index filled out of order;
* every driver agrees (serial, process pool, partitioned, cluster over
  the inline and process transports, replicated, after mutations,
  ``rebalance()`` -- whose non-ascending shard tables are what the
  coordinator's running-maximum translation exists for -- and a
  ``save`` / ``load`` round trip), and ``matches`` now counts exactly
  the reported pairs;
* nothing else moved: SET-CONTAINMENT self-discovery, external
  references and plain searches never carry a floor, and an index that
  just served a floored pass -- even one that raised half way -- still
  accepts ``add_record``.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.baselines.brute_force import brute_force_discover
from repro.cluster import FaultEvent, FaultPlan, SilkMothCluster
from repro.cluster import coordinator
from repro.cluster.replicas import ReplicaSet
from repro.core.config import Relatedness, SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.parallel import parallel_discover
from repro.core.partitioned import partitioned_discover
from repro.core.records import SetCollection
from repro.filters.check import select_columns
from repro.index.inverted import MAX_SET_ID, InvertedIndex
from repro.pipeline.driver import (
    LocalIds,
    discovery_floor,
    discovery_passes,
    keep_discovery_pair,
)
from repro.pipeline.plan import QueryPlan
from repro.service import SilkMothService
from repro.signatures import get_scheme
from repro.sim.functions import SimilarityKind
from strategies import SCHEMES, collections, string_collections
from strategies.checks import assert_columns_match_the_oracle
from strategies.kernels import KERNEL_MODES, kernel_mode

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Overlapping word sets: most pairs are related at delta 0.3, and sets
#: 2 and 5 carry an element that tokenises to nothing.
WORD_SETS = [
    ["ash bay", "elm fir"],
    ["ash bay", "elm oak"],
    ["ash bay", "elm fir", ""],
    ["ivy sky", "yew oak"],
    ["ash bay elm", "fir"],
    ["", "ivy sky"],
    ["ash bay", "elm fir"],
    ["ivy sky", "yew elm"],
    ["ash", "bay", "elm"],
]
WORD_CONFIG = SilkMothConfig(delta=0.3)


def _collection(sets, config):
    return SetCollection.from_strings(
        sets, kind=config.similarity, q=config.effective_q
    )


def _rows(results):
    return [(r.reference_id, r.set_id, r.score, r.relatedness) for r in results]


def _both_sides_rows(engine):
    """What discovery returned before the floor, from the public API."""
    symmetric = engine.config.metric is Relatedness.SIMILARITY
    rows = []
    for reference in engine.collection.iter_live():
        gid = reference.set_id
        for result in engine.search(reference, skip_set=gid):
            if keep_discovery_pair(
                gid, result.set_id, self_mode=True, symmetric=symmetric
            ):
                rows.append((gid, result.set_id, result.score, result.relatedness))
    return rows


def _assert_exact(engine):
    """discover() == both-sides oracle (bit for bit) == brute force."""
    passes_before = engine.stats.passes
    matches_before = engine.stats.matches
    got = _rows(engine.discover())
    assert engine.stats.matches - matches_before == len(got)
    assert engine.stats.passes - passes_before <= max(
        0, len(engine.collection) - 1
    )
    assert got == _both_sides_rows(engine)
    expected = brute_force_discover(engine.collection, engine.config)
    assert [row[:2] for row in got] == [
        (r.reference_id, r.set_id) for r in expected
    ]
    assert [row[2] for row in got] == pytest.approx([r.score for r in expected])
    return got


def _single_node_rows(sets, config, removed=()):
    """Single-node rows for *sets* with *removed* ids tombstoned."""
    collection = _collection(sets, config)
    engine = SilkMoth(collection, config)
    for set_id in removed:
        engine.index.note_removed(collection.remove_set(set_id))
    return _assert_exact(engine)


def _funnel(stats):
    return (
        stats.passes,
        stats.initial_candidates,
        stats.after_check,
        stats.after_nn,
        stats.verified,
        stats.matches,
    )


def _configs(kinds, **fixed):
    """Symmetric-metric configurations over *kinds* and every toggle."""
    return st.builds(
        SilkMothConfig,
        metric=st.just(Relatedness.SIMILARITY),
        similarity=st.sampled_from(kinds),
        delta=st.sampled_from((0.3, 0.5, 0.8)),
        alpha=st.sampled_from((0.0, 0.5, 0.8)),
        scheme=st.sampled_from(SCHEMES),
        check_filter=st.booleans(),
        nn_filter=st.booleans(),
        reduction=st.booleans(),
        size_filter=st.booleans(),
        **{key: st.just(value) for key, value in fixed.items()},
    )


# ----------------------------------------------------------------------
# The property: rows == both-sides oracle == brute force
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernels", KERNEL_MODES)
class TestRowsAreUnchanged:
    @_SETTINGS
    @given(
        sets=collections(min_sets=1, max_sets=8),
        config=_configs((SimilarityKind.JACCARD, SimilarityKind.DICE)),
    )
    def test_token_kinds(self, kernels, sets, config):
        with kernel_mode(kernels):
            _assert_exact(SilkMoth(_collection(sets, config), config))

    @_SETTINGS
    @given(
        sets=string_collections(min_sets=1, max_sets=6),
        config=_configs((SimilarityKind.EDS, SimilarityKind.NEDS)),
    )
    def test_edit_kinds(self, kernels, sets, config):
        with kernel_mode(kernels):
            _assert_exact(SilkMoth(_collection(sets, config), config))

    @_SETTINGS
    @given(
        sets=string_collections(min_sets=2, max_sets=6),
        kind=st.sampled_from((SimilarityKind.EDS, SimilarityKind.NEDS)),
        size_filter=st.booleans(),
    )
    def test_full_scan_fallback(self, kernels, sets, kind, size_filter):
        """alpha=0.5, q=2 under a prefix scheme: the planner's full scan."""
        with kernel_mode(kernels):
            self._full_scan_fallback(sets, kind, size_filter)

    @staticmethod
    def _full_scan_fallback(sets, kind, size_filter):
        config = SilkMothConfig(
            similarity=kind,
            delta=0.4,
            alpha=0.5,
            q=2,
            scheme="unweighted",
            size_filter=size_filter,
        )
        engine = SilkMoth(_collection(sets, config), config)
        assert engine.decision.full_scan
        _assert_exact(engine)
        # The full scan honours the floor too: nothing under it is a
        # candidate, so a pass sees at most the sets after its reference.
        n = len(sets)
        for one_pass in engine.stats.per_pass:
            assert one_pass.full_scan and one_pass.initial_candidates < n

    @_SETTINGS
    @given(
        sets=collections(min_sets=3, max_sets=8),
        config=_configs((SimilarityKind.JACCARD,)),
        data=st.data(),
    )
    def test_tombstones_before_and_after_compact(
        self, kernels, sets, config, data
    ):
        with kernel_mode(kernels):
            self._tombstones_before_and_after_compact(sets, config, data)

    @staticmethod
    def _tombstones_before_and_after_compact(sets, config, data):
        collection = _collection(sets, config)
        engine = SilkMoth(collection, config)
        dead = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(sets) - 1),
                min_size=1,
                max_size=len(sets) - 1,
                unique=True,
            )
        )
        for set_id in dead:
            engine.index.note_removed(collection.remove_set(set_id))
        before = _assert_exact(engine)
        assert not {row[0] for row in before} & set(dead)
        assert not {row[1] for row in before} & set(dead)
        engine.index.compact()
        assert _assert_exact(engine) == before

    @_SETTINGS
    @given(
        sets=collections(min_sets=2, max_sets=8),
        config=_configs((SimilarityKind.JACCARD, SimilarityKind.DICE)),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_index_filled_out_of_order(self, kernels, sets, config, seed):
        """``add_record`` in shuffled id order re-sorts the runs it cuts."""
        with kernel_mode(kernels):
            self._index_filled_out_of_order(sets, config, seed)

    @staticmethod
    def _index_filled_out_of_order(sets, config, seed):
        collection = _collection([], config)
        index = InvertedIndex(collection)
        for elements in sets:
            collection.add_set(elements)
        order = list(range(len(sets)))
        random.Random(seed).shuffle(order)
        for set_id in order:
            index.add_record(collection[set_id])
        shuffled = SilkMoth(collection, config, index=index)
        in_order = SilkMoth(_collection(sets, config), config)
        assert _assert_exact(shuffled) == _rows(in_order.discover())


@pytest.mark.parametrize("kernels", KERNEL_MODES)
def test_empty_after_tokenisation_elements(kernels):
    """Empty elements meet through the empty-element postings, floored."""
    with kernel_mode(kernels):
        _empty_after_tokenisation_elements()


def _empty_after_tokenisation_elements():
    sets = [["", "ash"], ["ash", ""], ["", ""], ["ash bay"], ["", "ash"], [""]]
    for alpha in (0.0, 0.5):
        config = SilkMothConfig(delta=0.5, alpha=alpha)
        rows = _assert_exact(SilkMoth(_collection(sets, config), config))
        assert (0, 4, 2.0, 1.0) in rows and (2, 5) in [r[:2] for r in rows]


# ----------------------------------------------------------------------
# The reference select oracle honours the same floor
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernels", KERNEL_MODES)
@_SETTINGS
@given(
    sets=collections(min_sets=2, max_sets=7),
    first_set=st.integers(min_value=0, max_value=8),
    tombstone=st.booleans(),
)
def test_reference_kernel_matches_packed_under_a_floor(
    kernels, sets, first_set, tombstone
):
    with kernel_mode(kernels):
        _reference_kernel_matches_packed_under_a_floor(
            sets, first_set, tombstone
        )


def _reference_kernel_matches_packed_under_a_floor(sets, first_set, tombstone):
    collection = SetCollection.from_strings(sets)
    index = InvertedIndex(collection)
    reference = collection[0]
    phi = SilkMothConfig(delta=0.5).phi
    signature = get_scheme("weighted").generate(reference, 0.4, phi, index)
    if signature is None:
        return
    if tombstone:
        index.note_removed(collection.remove_set(len(sets) - 1))
    assert_columns_match_the_oracle(
        reference, signature, index, phi, collection, None, None,
        get_backend(), (None, None), range(len(sets)), first_set,
    )
    packed = select_columns(
        reference, signature, index, phi, collection,
        backend=get_backend(), first_set=first_set,
    )
    set_ids = packed[0]
    assert all(set_id >= first_set for set_id in set_ids)
    unfloored = select_columns(
        reference, signature, index, phi, collection, backend=get_backend()
    )
    assert set_ids == [s for s in unfloored[0] if s >= first_set]


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def test_parallel_discover_two_processes():
    got = parallel_discover(WORD_SETS, WORD_CONFIG, processes=2)
    assert len(got) > 10  # the fixture really has related pairs
    assert _rows(got) == _single_node_rows(WORD_SETS, WORD_CONFIG)


def _spy_passes(monkeypatch):
    """Record ``(first_set, matches)`` of every pass any driver runs."""
    passes = []
    original = QueryPlan.execute

    def recording(plan):
        results, stats = original(plan)
        passes.append((plan.first_set, stats.matches))
        return results, stats

    monkeypatch.setattr(QueryPlan, "execute", recording)
    return passes


@pytest.mark.parametrize("partition_size", [1, 3, len(WORD_SETS)])
def test_partitioned_discover_skips_partitions_below_the_reference(
    monkeypatch, partition_size
):
    passes = _spy_passes(monkeypatch)
    got = partitioned_discover(
        WORD_SETS, WORD_CONFIG, partition_size=partition_size
    )
    n = len(WORD_SETS)
    # Reference r probes the partition [start, end) iff some id in it
    # exceeds r: r < end - 1.  No pass for partitions wholly at or below
    # the reference -- about half of the n * partitions the both-sides
    # driver ran.
    ends = [min(start + partition_size, n) for start in range(0, n, partition_size)]
    assert len(passes) == sum(end - 1 for end in ends) < n * len(ends)
    # The per-pass matches add up to the reported pairs here too.
    assert sum(matches for _, matches in passes) == len(got)
    assert _rows(got) == _single_node_rows(WORD_SETS, WORD_CONFIG)


def test_containment_partitioned_runs_every_pass(monkeypatch):
    passes = _spy_passes(monkeypatch)
    config = replace(WORD_CONFIG, metric=Relatedness.CONTAINMENT)
    got = partitioned_discover(WORD_SETS, config, partition_size=3)
    assert len(passes) == len(WORD_SETS) * 3
    assert not any(first_set for first_set, _ in passes)
    assert _rows(got) == _rows(
        SilkMoth(_collection(WORD_SETS, config), config).discover()
    )


CLUSTER_CASES = [
    pytest.param("inline", 1, id="inline"),
    pytest.param("inline", 2, id="inline-replicated"),
    pytest.param("process", 1, id="process"),
    pytest.param("process", 2, id="process-replicated"),
]


@pytest.mark.parametrize("transport, replicas", CLUSTER_CASES)
def test_cluster_discover_through_mutations(transport, replicas, tmp_path):
    """Identity with the single node at every step of a cluster's life."""
    sets = [list(s) for s in WORD_SETS]
    with SilkMothCluster.from_sets(
        sets, WORD_CONFIG, shards=3, transport=transport, replicas=replicas
    ) as cluster:
        expected = _single_node_rows(sets, WORD_CONFIG)
        assert _rows(cluster.discover()) == expected
        # matches stop double-counting: they are the reported pairs, and
        # the last reference runs no pass here either.
        assert cluster.run_stats.matches == len(expected)
        assert cluster.run_stats.passes == len(sets) - 1
        # The last pass run was reference 7's (floor: gid 8): shards 0
        # and 1 end at gids 6 and 7, below it, and were not routed.
        assert [k for k, _ in cluster.last_pass.per_shard] == [2]

        # add_set right after a floored pass, then discover again.
        sets.append(["ash bay", "elm fir", "oak"])
        assert cluster.add_set(sets[-1]) == len(sets) - 1
        sets.append(["ivy sky", "yew"])
        cluster.add_set(sets[-1])
        expected = _single_node_rows(sets, WORD_CONFIG)
        assert _rows(cluster.discover()) == expected

        removed = [0, 3, 6, 9]
        for gid in removed:
            cluster.remove_set(gid)
        expected = _single_node_rows(sets, WORD_CONFIG, removed)
        assert _rows(cluster.discover()) == expected

        # rebalance() appends old global ids to the lightest shard: the
        # moved-to table stops ascending, which is the case the
        # running-maximum translation of the floor exists for.
        assert cluster.rebalance() > 0
        tables = cluster._directory.shard_to_global
        assert any(table != sorted(table) for table in tables)
        matches_before = cluster.run_stats.matches
        assert _rows(cluster.discover()) == expected
        # Sound but no longer tight: a shard may verify a set from under
        # the floor, which the pair rule on the merged rows drops.
        assert cluster.run_stats.matches - matches_before >= len(expected)

        manifest = tmp_path / "cluster.json"
        cluster.save(manifest)
    with SilkMothCluster.load(
        manifest, WORD_CONFIG, transport=transport, replicas=replicas
    ) as loaded:
        assert any(t != sorted(t) for t in loaded._directory.shard_to_global)
        assert _rows(loaded.discover()) == expected
        loaded.add_set(["ash bay", "elm"])
        sets.append(["ash bay", "elm"])
        expected = _single_node_rows(sets, WORD_CONFIG, removed)
        assert _rows(loaded.discover()) == expected


def test_cluster_failover_retry_carries_the_floor(monkeypatch):
    """A worker killed or hung mid-discovery is retried with its floors.

    Floors ride in the block request as local ids, and replicas of a
    shard share local ids, so the retry on the next replica is the
    same request: rows stay identical to the single node's and no pair
    is lost or doubled.  Blocks of two references put the faults on a
    later block, where every reference's floor is above local 0 on
    both shards.
    """
    retried = []
    original = ReplicaSet._failover

    def recording(self, shard, command, payload):
        items, _ = payload
        retried.append((command, [first_local for *_, first_local in items]))
        return original(self, shard, command, payload)

    monkeypatch.setattr(ReplicaSet, "_failover", recording)
    monkeypatch.setattr(coordinator, "PASS_BLOCK", 2)
    plan = FaultPlan(
        [
            FaultEvent(
                kind="kill_shard", shard=0, command="search", after=2
            ),
            FaultEvent(kind="hang", shard=1, command="search", after=3),
        ]
    )
    with SilkMothCluster.from_sets(
        WORD_SETS,
        WORD_CONFIG,
        shards=2,
        replicas=2,
        transport="process",
        fault_plan=plan,
        backoff=0.0,
    ) as cluster:
        rows = _rows(cluster.discover())
        assert len(plan.fired_events()) == 2
        assert cluster.stats.failovers >= 2 and cluster.lost_shards() == []
        assert cluster.run_stats.matches == len(rows)
    assert rows == _single_node_rows(WORD_SETS, WORD_CONFIG)
    assert [command for command, _ in retried] == ["search"] * 2
    assert all(
        firsts and all(first > 0 for first in firsts) for _, firsts in retried
    )


@pytest.mark.parametrize("block", [1, 2, 8])
def test_cluster_discovery_routing_totals_at_the_edges(monkeypatch, block):
    """Hand-computed fan-out totals, whatever the block size.

    Shard 0 holds gids 0, 2, 4 (gid 2 is the empty set) and shard 1
    holds gids 1, 3, 5.  Only the floor skips a shard; a reference
    sharing no token with a shard (gid 3's oak on shard 0) still
    reaches it:

    ====  ======  ==========================  ======  =======  =====
    gid   floor   shards                      routed  skipped  pass
    ====  ======  ==========================  ======  =======  =====
    0     1       both                        2       0        yes
    1     2       both                        2       0        yes
    2     3       none: an empty reference    0       2        no
    3     4       both                        2       0        yes
    4     5       1 (shard 0 ends at gid 4)   1       1        yes
    5     6       above every shard: no pass  --      --       no
    ====  ======  ==========================  ======  =======  =====
    """
    monkeypatch.setattr(coordinator, "PASS_BLOCK", block)
    twin = ["ash bay", "elm"]
    sets = [twin, twin, [], ["oak"], twin, ["yew"]]
    with SilkMothCluster.from_sets(sets, WORD_CONFIG, shards=2) as cluster:
        rows = _rows(cluster.discover())
        stats = cluster.stats
        assert (
            stats.shards_routed_total,
            stats.shards_skipped_total,
            cluster.run_stats.passes,
        ) == (7, 3, 4)
    assert rows == _single_node_rows(sets, WORD_CONFIG)
    assert [row[:2] for row in rows] == [(0, 1), (0, 4), (1, 4)]


def test_cluster_floor_is_a_global_id_on_a_rebalanced_shard():
    """After a move a shard table is ``[.., 9, 7]``: gid 7 behind gid 9.

    Three twins at global ids 7, 8 and 9 on three shards.  ``rebalance``
    moves gid 7 onto shard 0, *behind* gid 9 (tables are append-only),
    so that table no longer ascends and local order is not global order:

    * reference 7 sits at local 4 and must still find gid 9 at local 3.
      A floor taken from the reference's *local* id would start shard 0
      at local 5 and lose the pair (7, 9) for good, since 9's pass never
      looks back.  The running maximum starts it at local 3.
    * reference 8 (floor: gid 9) also starts shard 0 at local 3, which
      surfaces gid 7 from *under* its floor.  The shard verifies it and
      the pair rule on the merged rows drops it: the floor is sound, not
      tight, on a non-ascending table, which is why that rule stays.
    """
    twin = ["ash bay", "elm fir"]
    sets = [twin if gid in (7, 8, 9) else [f"w{gid}"] for gid in range(12)]
    config = SilkMothConfig(delta=0.9)
    removed = [0, 3, 6, 10, 5, 11]
    with SilkMothCluster.from_sets(sets, config, shards=3) as cluster:
        for gid in removed:
            cluster.remove_set(gid)
        # live: shard 0 {9}, shard 1 {1, 4, 7}, shard 2 {2, 8}
        assert cluster.rebalance() == 1
        assert cluster.placement_of(7) == (0, 4)
        assert cluster._directory.shard_to_global[0] == [0, 3, 6, 9, 7]
        rows = _rows(cluster.discover())
        assert [row[:2] for row in rows] == [(7, 8), (7, 9), (8, 9)]
        expected = _single_node_rows(sets, config, removed)
        assert rows == expected
        # Reference 8's pass on shard 0 matched gid 7 and the merge
        # dropped it again: one match more than reported pairs.
        assert cluster.run_stats.matches == len(rows) + 1


# ----------------------------------------------------------------------
# Edges
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernels", KERNEL_MODES)
def test_edges(kernels, monkeypatch):
    with kernel_mode(kernels):
        _edges(monkeypatch)


def _edges(monkeypatch):
    config = WORD_CONFIG
    single = SilkMoth(_collection(WORD_SETS[:1], config), config)
    assert single.discover() == [] and single.stats.passes == 0

    engine = SilkMoth(_collection(WORD_SETS, config), config)
    n = len(WORD_SETS)
    last = engine.collection[n - 1]
    references = {n - 1: last, n + 4: last, 1: last}
    # The last reference has nothing after it: no pass is scheduled ...
    assert discovery_passes(
        [n - 1], n_sets=n, self_mode=True, symmetric=True
    ) == []
    # ... and the engine runner runs none for it either.
    assert engine.run_passes([(n - 1, n - 1, n)], references) == [([], None)]
    assert engine.stats.passes == 0
    # ... nor in a partition that lies wholly at or below the reference.
    below = LocalIds(range(3, 3 + n))
    assert engine.run_passes([(n + 4, n + 4, n + 5)], references, below) == [
        ([], None)
    ]
    assert engine.stats.passes == 0
    # A partition wholly above the reference is probed from its start,
    # and its local ids translate back to global ones.
    passes = _spy_passes(monkeypatch)
    above = LocalIds(range(5, 5 + n))
    ((results, _),) = engine.run_passes([(1, 1, 2)], references, above)
    assert [first_set for first_set, _ in passes] == [0]
    assert results and {r.set_id for r in results} <= set(range(5, 5 + n))

    reference = engine.collection[0]
    everything = engine.search(reference)
    assert [r.set_id for r in everything][0] == 0  # itself, unfloored
    for first_set in (n, n + 7, MAX_SET_ID, MAX_SET_ID + 1):
        # first_set << 32 leaves int64 at MAX_SET_ID + 1; still no hit.
        assert engine.search(reference, first_set=first_set) == []
    for first_set in range(n):
        assert engine.search(reference, first_set=first_set) == [
            r for r in everything if r.set_id >= first_set
        ]
        assert engine.search(reference, skip_set=3, first_set=first_set) == [
            r for r in everything if r.set_id >= first_set and r.set_id != 3
        ]


def test_floor_is_a_function_of_mode_symmetry_and_id_only():
    assert discovery_floor(7, self_mode=True, symmetric=True) == 8
    assert discovery_floor(7, self_mode=True, symmetric=False) == 0
    assert discovery_floor(7, self_mode=False, symmetric=True) == 0
    for reference_id in range(4):
        for set_id in range(4):
            for self_mode in (False, True):
                for symmetric in (False, True):
                    floor = discovery_floor(
                        reference_id, self_mode=self_mode, symmetric=symmetric
                    )
                    kept = keep_discovery_pair(
                        reference_id,
                        set_id,
                        self_mode=self_mode,
                        symmetric=symmetric,
                    )
                    # The floor never hides a pair the rule reports.
                    assert not kept or set_id >= floor
                    if floor:  # ... and where it applies, it IS the rule
                        assert kept == (set_id >= floor)


# ----------------------------------------------------------------------
# Unchanged by construction: nothing but symmetric self-discovery floors
# ----------------------------------------------------------------------
def _record_floors(monkeypatch):
    floors = []
    original = QueryPlan.build.__func__

    def recording(cls, *args, **kwargs):
        plan = original(cls, *args, **kwargs)
        floors.append((plan.skip_set, plan.first_set))
        return plan

    monkeypatch.setattr(QueryPlan, "build", classmethod(recording))
    return floors


def test_containment_self_discovery_reports_both_directions(monkeypatch):
    floors = _record_floors(monkeypatch)
    config = replace(WORD_CONFIG, metric=Relatedness.CONTAINMENT, delta=0.9)
    engine = SilkMoth(_collection(WORD_SETS, config), config)
    rows = _rows(engine.discover())
    pairs = [row[:2] for row in rows]
    assert (0, 6) in pairs and (6, 0) in pairs  # twins, both directions
    assert (0, 2) in pairs and (2, 0) not in pairs  # 0 is contained in 2
    assert pairs == [
        (r.reference_id, r.set_id) for r in brute_force_discover(
            engine.collection, config
        )
    ]
    # Every reference ran a whole-collection pass with only the self-skip.
    assert floors == [(gid, 0) for gid in range(len(WORD_SETS))]
    assert engine.stats.passes == len(WORD_SETS)
    with SilkMothCluster.from_sets(WORD_SETS, config, shards=2) as cluster:
        assert _rows(cluster.discover()) == rows
        assert cluster.run_stats.passes == len(WORD_SETS)


def test_external_references_and_searches_carry_no_floor(monkeypatch):
    floors = _record_floors(monkeypatch)
    engine = SilkMoth(_collection(WORD_SETS, WORD_CONFIG), WORD_CONFIG)
    references = engine.reference_collection(WORD_SETS[:4])
    external = engine.discover(references)
    # An external reference equal to a member set finds that set too.
    assert {(0, 0), (1, 1), (0, 6)} <= {
        (r.reference_id, r.set_id) for r in external
    }
    assert [(r.reference_id, r.set_id) for r in external] == [
        (r.reference_id, r.set_id)
        for r in brute_force_discover(engine.collection, WORD_CONFIG, references)
    ]
    # The funnel of four whole-collection passes, as at the parent
    # commit (d610bf1): the floor is not involved.
    assert _funnel(engine.stats) == (4, 26, 25, 24, 24, 17)
    engine.search(engine.collection[2], skip_set=2)
    service = SilkMothService(
        WORD_CONFIG, _collection(WORD_SETS, WORD_CONFIG), wal_dir=False
    )
    service.search(WORD_SETS[1])
    service.search_many([WORD_SETS[2], WORD_SETS[3]])
    with SilkMothCluster.from_sets(WORD_SETS, WORD_CONFIG, shards=2) as cluster:
        cluster.search(WORD_SETS[1])
    assert len(floors) >= 4 + 1 + 3 + 1
    assert all(first_set == 0 for _, first_set in floors)


# ----------------------------------------------------------------------
# Mutable-index safety: nothing derived from the cut outlives select
# ----------------------------------------------------------------------
class _BrokenPhi:
    """A similarity whose kind is readable and whose arithmetic throws.

    Select reads ``phi.kind`` before the posting merge and everything
    else (``alpha``, ``tokens_from_counts``, ``edit_at_least``,
    ``threshold``) after it, so a pass under this stub raises with the
    floored runs already cut, merged and -- with the kernels on --
    viewed as ndarrays.
    """

    def __init__(self, kind):
        self.kind = kind

    def __getattr__(self, name):
        raise RuntimeError(f"phi stub: {name}")


@pytest.mark.parametrize("kernels", KERNEL_MODES)
@pytest.mark.parametrize(
    "kind", [SimilarityKind.JACCARD, SimilarityKind.EDS], ids=["token", "edit"]
)
def test_index_accepts_writes_after_a_floored_pass(kernels, kind):
    with kernel_mode(kernels):
        _writes_after_a_floored_pass(kind)


def _writes_after_a_floored_pass(kind):
    sets = (
        WORD_SETS
        if kind is SimilarityKind.JACCARD
        else [["ashbay", "elmfir"], ["ashbay", "elmoak"], ["ashbey", "elmfir"],
              ["ivysky"], ["ashbay", "elmfir"], ["ashbay"]]
    )
    config = (
        WORD_CONFIG
        if kind.is_token_based
        else SilkMothConfig(similarity=kind, delta=0.5, alpha=0.6)
    )
    engine = SilkMoth(_collection(sets, config), config)
    _assert_exact(engine)
    # Straight after floored passes: appends to the very posting arrays
    # the passes cut must not raise BufferError.
    engine.add_set(list(sets[0]))
    _assert_exact(engine)

    # ... and after a floored pass that raised mid-select, with the
    # exception (hence its traceback and every frame's locals) alive.
    reference = engine.collection[0]
    signature = engine.scheme.generate(
        reference, config.delta * len(reference), engine.phi, engine.index
    )
    assert signature is not None
    with pytest.raises(RuntimeError, match="phi stub") as excinfo:
        select_columns(
            reference,
            signature,
            engine.index,
            _BrokenPhi(kind),
            engine.collection,
            backend=engine.backend,
            first_set=2,
        )
    engine.add_set(list(sets[1]))
    engine.add_set(list(sets[2]))
    assert excinfo.value is not None  # still holding the traceback
    _assert_exact(engine)


@pytest.mark.parametrize("transport, replicas", CLUSTER_CASES)
def test_cluster_accepts_add_set_between_discoveries(transport, replicas):
    sets = [list(s) for s in WORD_SETS]
    with SilkMothCluster.from_sets(
        sets, WORD_CONFIG, shards=2, transport=transport, replicas=replicas
    ) as cluster:
        first = cluster.discover()
        sets.append(list(WORD_SETS[0]))
        cluster.add_set(sets[-1])
        second = cluster.discover()
        expected = _single_node_rows(sets, WORD_CONFIG)
        assert _rows(second) == expected
        assert len(second) > len(first)
