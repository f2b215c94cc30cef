"""Cluster persistence: v3 shard snapshots and the manifest round-trip.

A saved cluster must reload into an observably identical one -- same
global ids, same answers, same generation -- including after mutations
and rebalancing have scattered placement away from round-robin; and
every malformed input must fail loudly, never load wrong.
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import SilkMothCluster
from repro.core.config import SilkMothConfig
from repro.io import persistence
from repro.io.persistence import (
    SnapshotFormatError,
    document_checksum,
    load_cluster_manifest,
    load_collection,
    load_shard_snapshot,
    save_cluster_manifest,
    save_shard_snapshot,
)
from repro.service import SilkMothService
from repro.sim.functions import SimilarityKind
from strategies import collections, token_configs, token_sets

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_shard_snapshot_round_trip(tmp_path):
    """A v3 shard file restores sets, tombstones, and shard metadata."""
    path = tmp_path / "shard.json"
    save_shard_snapshot(
        path,
        kind=SimilarityKind.JACCARD,
        q=1,
        sets=[["ash bay", "elm"], ["oak"], ["ivy"]],
        deleted=[1],
        shard_meta={
            "shard_index": 2,
            "local_to_global": [0, 3, 6],
            "generation": 5,
        },
    )
    collection, shard_meta = load_shard_snapshot(
        path, expected_kind=SimilarityKind.JACCARD, expected_q=1
    )
    assert [e.text for e in collection[0].elements] == ["ash bay", "elm"]
    assert sorted(collection.deleted_ids) == [1]
    assert collection.live_count == 2
    assert shard_meta["shard_index"] == 2
    assert shard_meta["local_to_global"] == [0, 3, 6]
    # A v3 file also loads as a plain collection (shard meta ignored).
    plain = load_collection(path)
    assert plain.live_count == 2


def test_a_shard_snapshot_is_read_once(tmp_path, monkeypatch):
    """Collection and shard metadata come from one read of the file, so
    a file replaced mid-load cannot mix two versions."""
    path = tmp_path / "shard.json"
    save_shard_snapshot(
        path, kind=SimilarityKind.JACCARD, q=1, sets=[["ash"], ["oak"]],
        deleted=[0], shard_meta={"shard_index": 1},
    )
    reads = []
    read = persistence._read_payload

    def counting(read_path):
        reads.append(read_path)
        return read(read_path)

    monkeypatch.setattr(persistence, "_read_payload", counting)
    collection, shard_meta = load_shard_snapshot(path)
    assert reads == [path]
    assert collection.live_count == 1 and shard_meta == {"shard_index": 1}


def test_shard_snapshot_validates_tokenizer(tmp_path):
    """Kind/q mismatches raise instead of serving wrong similarities."""
    path = tmp_path / "shard.json"
    save_shard_snapshot(
        path,
        kind=SimilarityKind.EDS,
        q=2,
        sets=[["abc"]],
        deleted=[],
        shard_meta={},
    )
    with pytest.raises(ValueError):
        load_shard_snapshot(path, expected_kind=SimilarityKind.JACCARD)
    with pytest.raises(ValueError):
        load_shard_snapshot(path, expected_kind=SimilarityKind.EDS, expected_q=3)


def test_manifest_round_trip_and_validation(tmp_path):
    """Manifests persist shard names + coordinator metadata; junk fails."""
    path = tmp_path / "cluster.json"
    save_cluster_manifest(
        path,
        kind=SimilarityKind.JACCARD,
        q=1,
        shard_files=["cluster-shard0.json"],
        metadata={"generation": 3},
    )
    payload = load_cluster_manifest(path)
    assert payload["shards"] == ["cluster-shard0.json"]
    assert payload["cluster"]["generation"] == 3

    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ValueError):
        load_cluster_manifest(bad)
    bad.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ValueError):
        load_cluster_manifest(bad)
    bad.write_text(
        json.dumps({"format": "silkmoth-cluster", "version": 99, "shards": []})
    )
    with pytest.raises(ValueError):
        load_cluster_manifest(bad)
    bad.write_text(
        json.dumps(
            {"format": "silkmoth-cluster", "version": 1, "shards": [1, 2]}
        )
    )
    with pytest.raises(ValueError):
        load_cluster_manifest(bad)


@pytest.mark.parametrize(
    "file,table,value",
    [
        ("manifest", "placement", [5]),
        ("manifest", "placement", [[0, "1"]]),
        ("manifest", "placement", [[0, 1, 2]]),
        ("manifest", "placement", "ab"),
        ("manifest", "deleted", ["0"]),
        ("manifest", "deleted", [True]),
        ("manifest", "deleted", [0, 0]),
        ("manifest", "deleted", [9]),
        ("shard", "local_to_global", "ab"),
        ("shard", "local_to_global", [0, "1"]),
        ("shard", "deleted", ["0"]),
    ],
)
def test_malformed_manifest_tables_are_format_errors(
    tmp_path, file, table, value
):
    """A mistyped table fails as a SnapshotFormatError naming its file,
    even under a valid checksum -- never a raw TypeError, and never a
    string measured with ``len``."""
    manifest = tmp_path / "cluster.json"
    with SilkMothCluster.from_sets(
        [["ash"], ["oak"]], SilkMothConfig(), shards=1
    ) as cluster:
        cluster.save(manifest)
    path = manifest if file == "manifest" else tmp_path / "cluster-shard0.json"
    payload = json.loads(path.read_text())
    if table == "deleted" and file == "shard":
        payload["deleted"] = value
    else:
        payload["cluster" if file == "manifest" else "shard"][table] = value
    payload["checksum"] = document_checksum(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(SnapshotFormatError, match=re.escape(str(path))):
        SilkMothCluster.load(manifest, SilkMothConfig())


@given(
    sets=collections(min_sets=1, max_sets=6),
    reference=token_sets(),
    config=token_configs(),
    shards=st.integers(min_value=1, max_value=3),
)
@_SETTINGS
def test_cluster_save_load_identity(tmp_path_factory, sets, reference, config, shards):
    """Save + load preserves ids, answers and the write generation."""
    tmp_path = tmp_path_factory.mktemp("cluster")
    manifest = tmp_path / "cluster.json"
    with SilkMothCluster.from_sets(sets, config, shards=shards) as cluster:
        expected = cluster.search(reference)
        live = cluster.live_set_ids()
        generation = cluster.generation
        cluster.save(manifest)
    loaded = SilkMothCluster.load(manifest, config)
    try:
        assert loaded.live_set_ids() == live
        assert loaded.generation == generation
        assert loaded.search(reference) == expected
    finally:
        loaded.close()


def test_cluster_snapshot_after_mutation_and_rebalance(tmp_path):
    """Scattered placement (moves, tombstones) survives the round trip."""
    config = SilkMothConfig(delta=0.3)
    sets = [[f"w{i} shared"] for i in range(9)]
    service = SilkMothService(config)
    for elements in sets:
        service.add_set(elements)
    with SilkMothCluster.from_sets(
        sets, config, shards=3, replicas=2
    ) as cluster:
        for gid in (0, 3, 6):  # empty out shard 0, then rebalance
            cluster.remove_set(gid)
            service.remove_set(gid)
        new_gid = cluster.update_set(1, ["w1 changed shared"])
        assert service.update_set(1, ["w1 changed shared"]).set_id == new_gid
        cluster.compact()
        assert cluster.stats.rebalance_moves > 0
        # A replica rebuilt after the moves comes from the directory.
        cluster._replicas.mark_dead(0, 0)
        assert cluster.revive() == 1
        manifest = tmp_path / "cluster.json"
        cluster.save(manifest)
        saved_stats = cluster.stats.to_dict()
        # One derivation of a shard's state: what every healthy replica
        # holds, what the directory derives and what save wrote agree.
        assert cluster.replica_health() == [[True, True]] * 3
        for k in range(cluster.n_shards):
            raw_sets, deleted = cluster._directory.state(k)
            expected = ([list(s) for s in raw_sets], deleted)
            for r in range(cluster.replica_count):
                held = cluster._replicas.endpoint(k, r).host.engine.collection
                assert (
                    [[e.text for e in record.elements] for record in held],
                    sorted(held.deleted_ids),
                ) == expected
            collection, _ = load_shard_snapshot(
                tmp_path / f"cluster-shard{k}.json"
            )
            assert (
                [[e.text for e in record.elements] for record in collection],
                sorted(collection.deleted_ids),
            ) == expected
    loaded = SilkMothCluster.load(manifest, config)
    try:
        assert loaded.live_set_ids() == service.live_set_ids()
        for reference in (["w1 changed"], ["shared"], ["w4 shared"]):
            assert loaded.search(reference) == service.search(reference)
        # Same config fingerprint => lifetime stats restored.
        assert loaded.stats.rebalance_moves == saved_stats["rebalance_moves"]
        # Mutations continue seamlessly under the global numbering.
        assert loaded.add_set(["w9 shared"]) == service.add_set(
            ["w9 shared"]
        ).set_id
        assert loaded.search(["w9 shared"]) == service.search(["w9 shared"])
    finally:
        loaded.close()


@pytest.mark.parametrize("transport", ["inline", "process", "socket"])
def test_save_writes_no_wal_metadata(tmp_path, monkeypatch, transport):
    """A cluster is durable at save() alone: the manifest carries no
    log positions, and SILKMOTH_WAL_DIR makes no replica write one --
    not even a worker process, which inherits the variable."""
    monkeypatch.setenv("SILKMOTH_WAL_DIR", str(tmp_path / "wal"))
    manifest = tmp_path / "cluster.json"
    with SilkMothCluster.from_sets(
        [["ash bay"], ["oak sky"]], SilkMothConfig(delta=0.3), shards=2,
        transport=transport,
    ) as cluster:
        cluster.add_set(["elm fir"])
        cluster.save(manifest)
    payload = load_cluster_manifest(manifest)
    assert "wal" not in payload["cluster"]
    assert not (tmp_path / "wal").exists()


def test_cluster_load_validates_config(tmp_path):
    """A manifest refuses to serve under mismatched tokenizer settings."""
    manifest = tmp_path / "cluster.json"
    with SilkMothCluster.from_sets(
        [["ash"]], SilkMothConfig(), shards=1
    ) as cluster:
        cluster.save(manifest)
    with pytest.raises(ValueError):
        SilkMothCluster.load(
            manifest, SilkMothConfig(similarity=SimilarityKind.EDS, alpha=0.8)
        )


def test_cluster_load_rejects_inconsistent_shard_map(tmp_path):
    """A shard file whose id map disagrees with its sets fails loudly."""
    manifest = tmp_path / "cluster.json"
    with SilkMothCluster.from_sets(
        [["ash"], ["oak"]], SilkMothConfig(), shards=1
    ) as cluster:
        cluster.save(manifest)
    shard_file = tmp_path / "cluster-shard0.json"
    payload = json.loads(shard_file.read_text())
    payload["shard"]["local_to_global"] = [0]  # maps 1 of 2 sets
    shard_file.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        SilkMothCluster.load(manifest, SilkMothConfig())
    # A placement entry pointing at a slot that holds a different
    # global id must fail too.
    payload["shard"]["local_to_global"] = [1, 0]  # swapped vs placement
    shard_file.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        SilkMothCluster.load(manifest, SilkMothConfig())


def test_snapshot_counts_in_stats(tmp_path):
    """save() increments snapshots_saved like the single-node service."""
    with SilkMothCluster.from_sets(
        [["ash"]], SilkMothConfig(), shards=2
    ) as cluster:
        cluster.save(tmp_path / "cluster.json")
        assert cluster.stats.snapshots_saved == 1
