"""Cluster durability: per-replica WALs, from-disk revive, manifests.

The cluster threading of the WAL under test: every replica logs to its
own ``<wal_dir>/shard<k>-replica<r>`` directory, a dead replica can be
rebuilt from disk instead of shipping state over the transport --
trust-but-verify: the recovered state must equal the coordinator's
directory exactly, anything else falls back to a plain rebuild
(:attr:`~repro.cluster.SilkMothCluster.wal_revive_fallbacks`) -- and
:meth:`save` checkpoints every shard log and records the positions in
the cluster manifest, so :meth:`load` with a *wal_dir* resumes from
disk with zero fallbacks after a clean save/close cycle.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import SilkMothCluster
from repro.core.config import SilkMothConfig
from repro.io.persistence import load_cluster_manifest
from repro.io.wal import wal_directory_in_use

CONFIG = SilkMothConfig(delta=0.3)

DATA = [
    ["ash bay common", "elm fir"],
    ["ash bay elm common", "oak"],
    ["sky yew common", "ivy"],
    ["ash common", "fir elm"],
    ["oak sky common", ""],
    ["bay fir common", "yew"],
]

BROAD_REFERENCE = ["ash bay common", "oak sky common"]


@pytest.fixture(autouse=True)
def _no_fsync(monkeypatch):
    monkeypatch.setenv("SILKMOTH_FSYNC", "0")
    monkeypatch.delenv("SILKMOTH_WAL_DIR", raising=False)


def _cluster(tmp_path, **kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("replicas", 2)
    kwargs.setdefault("wal_dir", tmp_path / "wal")
    return SilkMothCluster.from_sets(DATA, CONFIG, **kwargs)


def test_each_replica_logs_to_its_own_directory(tmp_path):
    with _cluster(tmp_path) as cluster:
        cluster.add_set(["fresh common words"])
        names = sorted(p.name for p in (tmp_path / "wal").iterdir())
        assert names == [
            f"shard{k}-replica{r}" for k in range(2) for r in range(2)
        ]
        for name in names:
            assert wal_directory_in_use(tmp_path / "wal" / name)
        assert cluster.wal_revive_fallbacks == 0


def test_env_var_opt_in(tmp_path, monkeypatch):
    monkeypatch.setenv("SILKMOTH_WAL_DIR", str(tmp_path / "env-wal"))
    with SilkMothCluster.from_sets(
        DATA, CONFIG, shards=2, replicas=1
    ) as cluster:
        cluster.add_set(["env opted in"])
        assert (tmp_path / "env-wal" / "shard0-replica0").is_dir()


def test_revive_from_disk_adopts_a_current_log(tmp_path):
    with _cluster(tmp_path) as cluster:
        cluster.add_set(["fresh common words"])
        cluster.remove_set(0)
        expected = cluster.search(BROAD_REFERENCE)
        cluster._replicas.mark_dead(0, 0)
        assert cluster.revive(from_disk=True) == 1
        # The dead replica's log described exactly the coordinator's
        # state, so it was adopted -- no fallback rebuild.
        assert cluster.wal_revive_fallbacks == 0
        cluster._replicas.endpoint(0, 1).kill()  # answers must come from the revived one
        cluster.cache.invalidate()
        assert cluster.search(BROAD_REFERENCE) == expected


def test_revive_from_disk_falls_back_on_a_stale_log(tmp_path):
    with _cluster(tmp_path) as cluster:
        cluster._replicas.mark_dead(0, 0)
        # Mutations the dead replica never saw: its log is now stale.
        cluster.add_set(["ash bay common update"])
        cluster.remove_set(2)
        expected = cluster.search(BROAD_REFERENCE)
        assert cluster.revive(from_disk=True) == 1
        assert cluster.wal_revive_fallbacks == 1
        cluster._replicas.endpoint(0, 1).kill()
        cluster.cache.invalidate()
        assert cluster.search(BROAD_REFERENCE) == expected


def test_revive_rejects_a_shard_index_out_of_range(tmp_path):
    """A bad index names the valid range and revives nothing: no replica
    comes back under a WAL directory no later load reads."""
    wal = tmp_path / "wal"
    with _cluster(tmp_path) as cluster:
        cluster._replicas.mark_dead(1, 0)
        before = sorted(p.name for p in wal.iterdir())
        for bad in (-1, 2, 5):
            with pytest.raises(ValueError, match=r"0\.\.1"):
                cluster.revive(shard=bad)
            with pytest.raises(ValueError, match=r"0\.\.1"):
                cluster.revive(shard=bad, from_disk=True)
        assert sorted(p.name for p in wal.iterdir()) == before
        assert cluster.replica_health() == [[True, True], [False, True]]
        assert cluster.revive(shard=1) == 1
        assert sorted(p.name for p in wal.iterdir()) == before


def test_plain_revive_never_touches_the_disk_path(tmp_path):
    with _cluster(tmp_path) as cluster:
        cluster._replicas.mark_dead(1, 1)
        assert cluster.revive() == 1
        assert cluster.wal_revive_fallbacks == 0


def test_save_records_wal_positions_and_load_recovers(tmp_path):
    manifest = tmp_path / "snap" / "cluster.json"
    manifest.parent.mkdir()
    with _cluster(tmp_path) as cluster:
        cluster.add_set(["fresh common words"])
        cluster.update_set(1, ["rewritten common"])
        expected = cluster.search(BROAD_REFERENCE)
        cluster.save(manifest)
        payload = load_cluster_manifest(manifest)
        wal_meta = payload["cluster"]["wal"]
        assert wal_meta["dir"] == str(tmp_path / "wal")
        assert len(wal_meta["positions"]) == 2
        # save() checkpointed: every shard log starts a fresh segment.
        for position in wal_meta["positions"]:
            assert position["segment_records"] == 0

    loaded = SilkMothCluster.load(
        manifest, CONFIG, replicas=2, wal_dir=tmp_path / "wal"
    )
    try:
        assert loaded.wal_revive_fallbacks == 0
        assert loaded.search(BROAD_REFERENCE) == expected
    finally:
        loaded.close()


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_load_with_wal_falls_back_when_log_ran_ahead(tmp_path, transport):
    manifest = tmp_path / "cluster.json"
    with _cluster(tmp_path, replicas=1, transport=transport) as cluster:
        expected = cluster.search(BROAD_REFERENCE)
        cluster.save(manifest)
        cluster.add_set(["mutation after the save"])  # never saved

    loaded = SilkMothCluster.load(
        manifest,
        CONFIG,
        replicas=1,
        transport=transport,
        wal_dir=tmp_path / "wal",
    )
    try:
        # The shard that took the unsaved add diverges from the
        # manifest; the manifest wins and the divergence is counted
        # (the other shard came back from its log, started alongside).
        assert loaded.wal_revive_fallbacks == 1
        assert len(loaded) == len(DATA)
        assert loaded.search(BROAD_REFERENCE) == expected
    finally:
        loaded.close()


def test_save_without_wal_writes_no_wal_metadata(tmp_path):
    manifest = tmp_path / "cluster.json"
    with SilkMothCluster.from_sets(DATA, CONFIG, shards=2) as cluster:
        cluster.save(manifest)
    payload = load_cluster_manifest(manifest)
    assert "wal" not in payload["cluster"]


def test_manifest_wal_positions_are_json_clean(tmp_path):
    manifest = tmp_path / "cluster.json"
    with _cluster(tmp_path, replicas=1) as cluster:
        cluster.add_set(["json witness common"])
        cluster.save(manifest)
    with open(manifest, encoding="utf-8") as handle:
        raw = json.load(handle)
    positions = raw["cluster"]["wal"]["positions"]
    assert all(
        position is None or isinstance(position["segment"], int)
        for position in positions
    )


def test_process_transport_wal_round_trip(tmp_path):
    """Worker processes log to disk too; save/close/load stays exact."""
    manifest = tmp_path / "cluster.json"
    with SilkMothCluster.from_sets(
        DATA,
        CONFIG,
        shards=2,
        replicas=1,
        transport="process",
        wal_dir=tmp_path / "wal",
    ) as cluster:
        cluster.add_set(["process transport words"])
        expected = cluster.search(BROAD_REFERENCE)
        cluster.save(manifest)

    loaded = SilkMothCluster.load(
        manifest,
        CONFIG,
        transport="process",
        replicas=1,
        wal_dir=tmp_path / "wal",
    )
    try:
        assert loaded.wal_revive_fallbacks == 0
        assert loaded.search(BROAD_REFERENCE) == expected
    finally:
        loaded.close()
