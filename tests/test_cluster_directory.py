"""Unit behaviour of the cluster's id directory (``ShardDirectory``).

The directory is the only place the live-slot rule lives: a slot
``(k, local)`` is live when its global id is not tombstoned and the
placement still points at it.  These tests drive the tables directly
-- no shards, no transports -- through ``append``, ``tombstone`` and
``move``, and check what ``state``, ``youngest_live_on`` and the
manifest round trip derive from them.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.directory import ShardDirectory
from repro.core.config import SilkMothConfig
from repro.io.persistence import document_checksum
from repro.sim.functions import SimilarityKind

_SETS = [("a b",), ("c d",), ("e f",), ("g h",), ("i j",)]


def test_round_robin_places_global_id_on_shard_mod_n():
    directory = ShardDirectory.round_robin(_SETS, shards=2)
    assert directory.n_shards == 2
    assert directory.placement == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]
    assert directory.shard_to_global == [[0, 2, 4], [1, 3]]
    assert directory.shard_live == [3, 2]
    assert directory.raw == _SETS


def test_append_returns_fresh_global_ids():
    directory = ShardDirectory(shards=3)
    assert directory.append(2, 0, ["x"]) == 0
    assert directory.append(0, 0, ["y", "z"]) == 1
    assert directory.placement == [(2, 0), (0, 0)]
    assert directory.raw == [("x",), ("y", "z")]
    assert directory.shard_live == [1, 0, 1]
    assert directory.state(2) == ([("x",)], [])
    assert directory.state(1) == ([], [])


def test_tombstone_kills_the_slot_but_keeps_the_id_answering():
    directory = ShardDirectory.round_robin(_SETS, shards=2)
    directory.tombstone(2)
    assert directory.shard_live == [2, 2]
    sets, deleted = directory.state(0)
    assert sets == [_SETS[0], _SETS[2], _SETS[4]]
    assert deleted == [1]
    # A tombstoned id keeps its texts and placement.
    assert directory.assigned(2) == 2
    assert directory.raw[2] == _SETS[2]
    assert directory.placement[2] == (0, 1)


def test_move_leaves_a_dead_copy_behind():
    directory = ShardDirectory.round_robin(_SETS, shards=2)
    directory.move(4, 1, 2)
    assert directory.placement[4] == (1, 2)
    assert directory.shard_to_global == [[0, 2, 4], [1, 3, 4]]
    assert directory.shard_live == [2, 3]
    assert directory.state(0) == ([_SETS[0], _SETS[2], _SETS[4]], [2])
    assert directory.state(1) == ([_SETS[1], _SETS[3], _SETS[4]], [])


def test_youngest_live_on_skips_dead_slots():
    directory = ShardDirectory.round_robin(_SETS, shards=2)
    assert directory.youngest_live_on(0) == 4
    directory.tombstone(4)
    assert directory.youngest_live_on(0) == 2
    directory.move(2, 1, 2)
    assert directory.youngest_live_on(0) == 0
    assert directory.youngest_live_on(1) == 2
    directory.tombstone(0)
    with pytest.raises(RuntimeError, match="shard 0 has no live sets"):
        directory.youngest_live_on(0)


@pytest.mark.parametrize("set_id", [-1, -5, 5, 99])
def test_assigned_rejects_ids_never_handed_out(set_id):
    directory = ShardDirectory.round_robin(_SETS, shards=2)
    with pytest.raises(KeyError, match=f"set_id {set_id} was never assigned"):
        directory.assigned(set_id)


def test_local_ids_carry_each_shards_table():
    directory = ShardDirectory.round_robin(_SETS, shards=2)
    directory.move(0, 1, 2)
    tables = [list(ids.table) for ids in directory.local_ids()]
    assert tables == [[0, 2, 4], [1, 3, 0]]


def test_write_then_read_round_trips_the_tables(tmp_path):
    config = SilkMothConfig()
    directory = ShardDirectory.round_robin(_SETS, shards=2)
    directory.tombstone(1)
    directory.move(4, 1, 2)
    manifest = tmp_path / "bundle.json"
    directory.write(
        manifest, config.similarity, config.effective_q, {"extra": 7}
    )
    assert (tmp_path / "bundle-shard0.json").exists()
    assert (tmp_path / "bundle-shard1.json").exists()
    loaded, meta = ShardDirectory.read(manifest, config)
    assert meta["extra"] == 7
    assert loaded.placement == directory.placement
    assert loaded.raw == directory.raw
    assert loaded.deleted == directory.deleted
    assert loaded.shard_to_global == directory.shard_to_global
    assert loaded.shard_live == directory.shard_live
    for k in range(2):
        assert loaded.state(k) == directory.state(k)


def test_read_rejects_a_mismatched_tokenizer(tmp_path):
    config = SilkMothConfig()
    directory = ShardDirectory.round_robin(_SETS, shards=2)
    manifest = tmp_path / "bundle.json"
    directory.write(manifest, config.similarity, config.effective_q, {})
    eds = SilkMothConfig(similarity=SimilarityKind.EDS, alpha=0.8, q=2)
    with pytest.raises(ValueError, match="tokenised for 'jaccard'"):
        ShardDirectory.read(manifest, eds)


def test_read_rejects_a_placement_pointing_at_the_wrong_slot(tmp_path):
    config = SilkMothConfig()
    directory = ShardDirectory.round_robin(_SETS, shards=2)
    manifest = tmp_path / "bundle.json"
    directory.write(manifest, config.similarity, config.effective_q, {})
    payload = json.loads(manifest.read_text())
    payload["cluster"]["placement"][0] = [1, 0]
    payload["checksum"] = document_checksum(payload)
    manifest.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="placement maps global id 0"):
        ShardDirectory.read(manifest, config)
