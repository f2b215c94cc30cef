"""The coordinator's directory: the global id space of a sharded cluster.

A :class:`~repro.cluster.SilkMothCluster` numbers its sets globally and
append-only, and places each one on a shard under a shard-local id.
:class:`ShardDirectory` holds every table that mapping needs -- the
placement, the raw element texts, the global tombstones, each shard's
local -> global table and its live count -- and changes them only
through :meth:`~ShardDirectory.append`, :meth:`~ShardDirectory.tombstone`
and :meth:`~ShardDirectory.move`.

A slot ``(k, local)`` is *live* when its global id is not tombstoned
and the placement still points at it.  Every other slot -- a removed
set, or the copy a rebalance move left behind -- is a shard-local
tombstone.  :meth:`~ShardDirectory.state` applies that rule to derive
what a shard holds, and it is the only derivation: construction,
``revive`` and ``save`` all read it, which is why a dead replica can
be rebuilt without any surviving replica's help.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.core.config import SilkMothConfig
from repro.core.records import is_set_id
from repro.io.persistence import (
    CLUSTER_FORMAT_NAME,
    FORMAT_NAME,
    SnapshotFormatError,
    read_document,
    save_cluster_manifest,
    save_shard_snapshot,
)
from repro.pipeline.driver import LocalIds
from repro.settings import resolve
from repro.sim.functions import SimilarityKind


class ShardDirectory:
    """Global id -> ``(shard, local id)``, plus every set's raw texts.

    Built empty, round-robin (:meth:`round_robin`) or from a manifest
    (:meth:`read`), over *shards* shards (``None`` defers to
    ``SILKMOTH_SHARDS`` and then 4).  Global ids are never reused: a
    tombstoned id keeps its texts and placement.
    """

    def __init__(self, shards: "int | None"):
        n_shards = resolve("SILKMOTH_SHARDS", shards)
        #: Global id -> (shard index, shard-local id); append-only.
        self.placement: list[tuple[int, int]] = []
        #: Global id -> raw element texts.
        self.raw: list[tuple[str, ...]] = []
        #: Globally tombstoned ids.
        self.deleted: set[int] = set()
        #: Per shard: local id -> global id (grows with every add/move).
        self.shard_to_global: list[list[int]] = [[] for _ in range(n_shards)]
        #: Per shard: live sets currently placed there.
        self.shard_live: list[int] = [0] * n_shards

    @classmethod
    def round_robin(
        cls, sets: Sequence[Sequence[str]], shards: "int | None"
    ) -> "ShardDirectory":
        """Place *sets* in order, global id ``g`` on shard ``g % n``,
        each element stored as its ``str`` (as a write stores it)."""
        directory = cls(shards)
        for gid, elements in enumerate(sets):
            shard = gid % directory.n_shards
            local = len(directory.shard_to_global[shard])
            directory.append(shard, local, map(str, elements))
        return directory

    @property
    def n_shards(self) -> int:
        """How many shards the tables describe."""
        return len(self.shard_to_global)

    def assigned(self, set_id: int) -> int:
        """*set_id*, if it was ever assigned (tombstones included);
        :class:`KeyError` otherwise -- a negative id must not index the
        tables from the end, nor ``True`` stand for set 1."""
        if not (is_set_id(set_id) and 0 <= set_id < len(self.placement)):
            raise KeyError(f"set_id {set_id!r} was never assigned")
        return set_id

    def _is_live_slot(self, shard: int, local: int) -> bool:
        """The live-slot rule (module docstring)."""
        gid = self.shard_to_global[shard][local]
        at_home = self.placement[gid] == (shard, local)
        return at_home and gid not in self.deleted

    def state(self, shard: int) -> tuple[list, list]:
        """``(raw sets, deleted local ids)``: what *shard* holds."""
        table = self.shard_to_global[shard]
        sets = [self.raw[gid] for gid in table]
        deleted = [
            local
            for local in range(len(table))
            if not self._is_live_slot(shard, local)
        ]
        return sets, deleted

    def youngest_live_on(self, shard: int) -> int:
        """The highest-slot global id currently live on *shard*."""
        table = self.shard_to_global[shard]
        for local in range(len(table) - 1, -1, -1):
            if self._is_live_slot(shard, local):
                return table[local]
        raise RuntimeError(f"shard {shard} has no live sets to move")

    def local_ids(self) -> list[LocalIds]:
        """Per shard, the global -> local translation of a pass."""
        return [LocalIds(table) for table in self.shard_to_global]

    # ------------------------------------------------------------------
    # Mutations (called once a shard has accepted the write)
    # ------------------------------------------------------------------
    def append(self, shard: int, local: int, elements: Sequence[str]) -> int:
        """Record a set the shard stored at *local*; its fresh global id."""
        gid = len(self.placement)
        self.placement.append((shard, local))
        self.raw.append(tuple(elements))
        self.shard_to_global[shard].append(gid)
        self.shard_live[shard] += 1
        return gid

    def tombstone(self, set_id: int) -> None:
        """Record that the owning shard dropped live *set_id*."""
        self.deleted.add(set_id)
        self.shard_live[self.placement[set_id][0]] -= 1

    def move(self, set_id: int, shard: int, local: int) -> None:
        """Re-home live *set_id* at ``(shard, local)``; the old slot dies."""
        self.shard_live[self.placement[set_id][0]] -= 1
        self.placement[set_id] = (shard, local)
        self.shard_to_global[shard].append(set_id)
        self.shard_live[shard] += 1

    # ------------------------------------------------------------------
    # Manifests
    # ------------------------------------------------------------------
    def _shard_file_names(self, manifest: Path) -> list[str]:
        """Per-shard snapshot file names, derived from the manifest's."""
        stem = manifest.stem
        suffix = manifest.suffix or ".json"
        return [f"{stem}-shard{k}{suffix}" for k in range(self.n_shards)]

    def write(
        self, manifest: Path, kind: SimilarityKind, q: int, metadata: dict
    ) -> None:
        """Write one v3 snapshot per shard, then the manifest.

        Shard files land next to *manifest* as
        ``<stem>-shard<k><suffix>``; the manifest's metadata is
        *metadata* plus the placement and the global tombstones.
        """
        shard_files = self._shard_file_names(manifest)
        for k, name in enumerate(shard_files):
            sets, deleted = self.state(k)
            save_shard_snapshot(
                manifest.parent / name,
                kind=kind,
                q=q,
                sets=sets,
                deleted=deleted,
                shard_meta={
                    "shard_index": k,
                    "local_to_global": list(self.shard_to_global[k]),
                },
            )
        save_cluster_manifest(
            manifest,
            kind=kind,
            q=q,
            shard_files=shard_files,
            metadata={
                "placement": [list(pair) for pair in self.placement],
                "deleted": sorted(self.deleted),
                **metadata,
            },
        )

    @classmethod
    def read(
        cls, manifest: Path, config: SilkMothConfig
    ) -> "tuple[ShardDirectory, dict]":
        """The directory a manifest describes, and its metadata.

        Every file goes through the snapshot reader, which checks its
        shape and its tokenizer settings against *config*; the raw
        texts come straight from the shard documents, untokenised.
        Here each table is checked against the others; keys the
        metadata carries beyond the tables (older files'
        ``shard_generations``, ``summary_bits``) are left to the
        caller.
        """
        expected = (config.similarity, config.effective_q)
        payload = read_document(manifest, CLUSTER_FORMAT_NAME, *expected)
        shard_sets = []
        tables = []
        for name in payload["shards"]:
            path = manifest.parent / name
            document = read_document(path, FORMAT_NAME, *expected)
            raw_sets = [tuple(elements) for elements in document["sets"]]
            shard_sets.append(raw_sets)
            table = document.get("shard", {}).get("local_to_global", [])
            if len(table) != len(raw_sets):
                raise SnapshotFormatError(
                    f"{path}: local_to_global maps {len(table)} sets, "
                    f"snapshot holds {len(raw_sets)}"
                )
            tables.append(table)
        meta = payload.get("cluster", {})
        directory = cls(len(tables))
        directory.placement = [tuple(pair) for pair in meta.get("placement", [])]
        directory.deleted = set(meta.get("deleted", []))
        directory.shard_to_global = tables
        for k, table in enumerate(tables):
            for local, gid in enumerate(table):
                if not 0 <= gid < len(directory.placement):
                    raise SnapshotFormatError(
                        f"{manifest}: shard {k} maps local {local} to "
                        f"unknown global id {gid}"
                    )
        for gid, (shard, local) in enumerate(directory.placement):
            if (
                not 0 <= shard < len(tables)
                or not 0 <= local < len(tables[shard])
                or tables[shard][local] != gid
            ):
                raise SnapshotFormatError(
                    f"{manifest}: placement maps global id {gid} to "
                    f"shard {shard} local {local}, but that slot does "
                    "not hold it"
                )
            directory.raw.append(shard_sets[shard][local])
            if gid not in directory.deleted:
                directory.shard_live[shard] += 1
        return directory, meta
