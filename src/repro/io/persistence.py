"""Save and load tokenised collections (dataset snapshots).

A :class:`repro.SetCollection` is deterministic given the raw sets and
tokenizer settings, so the snapshot stores exactly those: raw element
strings plus (kind, q).  Loading re-tokenises, which keeps the format
trivially stable across library versions (no interned ids or index
structures on disk) while still being byte-reproducible.

Version 1 (plain collection)::

    {
      "format": "silkmoth-collection",
      "version": 1,
      "similarity": "jaccard",
      "q": 1,
      "sets": [["element text", ...], ...]
    }

Version 2 (service snapshot) adds tombstones and service metadata so a
long-lived mutable :class:`repro.service.SilkMothService` round-trips
with its live-set membership and counters intact::

    {
      ...same fields as version 1...,
      "version": 2,
      "deleted": [set_id, ...],
      "service": {"generation": 7, ...}
    }

Version 3 (shard snapshot) is a version-2 snapshot plus the shard's
place in a cluster -- its index and its local-to-global id map -- so
one shard file is self-describing and a whole cluster is a manifest
plus N shard files (older files also carry a shard ``generation``,
which nothing reads)::

    {
      ...same fields as version 2...,
      "version": 3,
      "shard": {"shard_index": 0, "local_to_global": [...]}
    }

The cluster manifest is a separate, tiny format
(``silkmoth-cluster`` version 1): it names the shard files (relative
to the manifest) and carries the coordinator's state -- the global
placement table, global tombstones and lifetime stats::

    {
      "format": "silkmoth-cluster",
      "version": 1,
      "similarity": "jaccard",
      "q": 1,
      "shards": ["name-shard0.json", ...],
      "cluster": {"placement": [[shard, local], ...],
                  "deleted": [...], "generation": 9, ...}
    }

One writer and one reader own the format.  :func:`write_document`
writes every document -- the four ``save_*`` functions only choose its
format, version, tokenizer and sections.  :func:`read_document` reads
both magics and checks, in order, the JSON parse, the magic, the
version, the checksum and the shape of every field:

* ``similarity`` names a similarity kind and ``q`` is a positive int;
* ``sets`` is a list of lists of element strings;
* ``deleted`` holds unique ints in range (set ids for a snapshot,
  global ids -- placement entries -- for a manifest);
* ``service``, ``shard`` and ``cluster`` are objects, and a
  ``generation`` in one of them is an int;
* ``shard.local_to_global`` is a list of ints, ``shards`` a list of
  strings and ``cluster.placement`` a list of ``[int, int]`` pairs.

Every fault in the file is a typed :class:`SnapshotError` naming it; a
file whose (kind, q) differs from what the caller expects is a plain
``ValueError``.  The reader never tokenises: ``load_collection`` / ``load_service_snapshot``
/ ``load_shard_snapshot`` build the :class:`repro.SetCollection` from
the checked document (tombstones re-applied), and callers that only
need the raw texts -- the cluster's shard directory -- take them from
the document itself.

Version-2/3 snapshots and the manifest additionally carry a
``checksum`` field -- a blake2b-8 digest over the canonical JSON of
the rest of the document (see :func:`document_checksum`) -- so silent
byte corruption surfaces as a typed :class:`SnapshotCorruptionError`
at load time rather than as subtly wrong data.  Documents without the
field (version 1, or files written by older builds) still load.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.core.records import SetCollection
from repro.obs.instrument import observe_snapshot
from repro.obs.trace import span
from repro.settings import resolve
from repro.sim.functions import SimilarityKind

class SnapshotError(ValueError):
    """Base class for snapshot/manifest load failures.

    Subclasses ``ValueError`` so long-standing callers that catch the
    old exception keep working; new code should catch this (or one of
    the two subclasses) to distinguish "the file is bad" from ordinary
    argument errors.  Raising *typed* errors here is part of the fault
    story: a truncated or version-skewed snapshot must fail with a
    diagnosis, never with a raw ``KeyError``/``json.JSONDecodeError``
    leaking from the parser.
    """


class SnapshotFormatError(SnapshotError):
    """The file is not a well-formed snapshot (truncated, corrupt,
    wrong magic, or missing/mistyped required fields)."""


class SnapshotVersionError(SnapshotError):
    """The file parses but declares a schema version this build does
    not read (version skew between writer and reader)."""


class SnapshotCorruptionError(SnapshotError):
    """The file parses and has the right shape, but its whole-document
    checksum does not match: the bytes were silently corrupted after
    writing (bit rot, a torn sector, a misbehaving copy)."""


#: Magic string identifying collection snapshots.
FORMAT_NAME = "silkmoth-collection"
#: Plain collection snapshot schema version.
FORMAT_VERSION = 1
#: Service snapshot schema version (adds tombstones + metadata).
SERVICE_FORMAT_VERSION = 2
#: Shard snapshot schema version (adds cluster-shard metadata).
SHARD_FORMAT_VERSION = 3
#: Magic string identifying cluster manifests.
CLUSTER_FORMAT_NAME = "silkmoth-cluster"
#: Cluster manifest schema version.
CLUSTER_FORMAT_VERSION = 1
#: The versions the reader accepts, per magic.
_VERSIONS = {
    FORMAT_NAME: (FORMAT_VERSION, SERVICE_FORMAT_VERSION, SHARD_FORMAT_VERSION),
    CLUSTER_FORMAT_NAME: (CLUSTER_FORMAT_VERSION,),
}
#: The ``similarity`` values a document may carry.
_KINDS = tuple(kind.value for kind in SimilarityKind)
#: What error messages call a document of each magic.
_NOUNS = {FORMAT_NAME: "snapshot", CLUSTER_FORMAT_NAME: "manifest"}


def fsync_directory(path: str | os.PathLike) -> None:
    """Best-effort fsync of a directory entry (no-op where unsupported).

    Needed after ``os.replace``/``open(..., "x")``: the *data* being on
    disk does not imply the *name* is -- the directory block holding
    the entry must be flushed too.  Some filesystems refuse fsync on
    directory descriptors; those errors are swallowed because there is
    nothing more a portable caller can do.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: str | os.PathLike, text: str, fsync: "bool | None" = None
) -> None:
    """Write *text* to *path* atomically (temp file + ``os.replace``).

    A crash mid-write (OOM, SIGKILL, full disk) must never destroy an
    existing good file or leave a truncated one: the bytes land in a
    sibling temp file first and the rename is atomic on POSIX.  Shared
    by snapshot writes and cost-profile exports.

    Unless fsync is disabled (*fsync* argument, else ``SILKMOTH_FSYNC``,
    default on) the temp file is fsynced before the rename and the
    parent directory after it, closing the power-cut hole where the
    rename reaches disk before the data and a reboot reveals an empty
    or partial file under the final name.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    do_fsync = resolve("SILKMOTH_FSYNC", fsync)
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            if do_fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if do_fsync:
            fsync_directory(path.parent)
    finally:
        if tmp.exists():
            tmp.unlink()


def document_checksum(payload: dict) -> str:
    """Whole-document checksum over a snapshot payload (blake2b-8 hex).

    Computed over the canonical JSON form (sorted keys, no whitespace)
    of every field except ``checksum`` itself, so the stored digest is
    independent of serialisation details and key order.
    """
    body = {key: value for key, value in payload.items() if key != "checksum"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


def _verify_checksum(path: str | Path, payload: dict) -> None:
    """Raise :class:`SnapshotCorruptionError` on a checksum mismatch.

    Documents without a ``checksum`` field pass (pre-checksum snapshots
    stay loadable); a present-but-mistyped field is a format error.
    """
    stored = payload.get("checksum")
    if stored is None:
        return
    if not isinstance(stored, str):
        raise SnapshotFormatError(f"{path}: 'checksum' must be a string")
    actual = document_checksum(payload)
    if actual != stored:
        raise SnapshotCorruptionError(
            f"{path}: checksum mismatch (stored {stored}, computed "
            f"{actual}): the file was corrupted after it was written"
        )


# ----------------------------------------------------------------------
# The writer
# ----------------------------------------------------------------------
def write_document(
    path: str | Path,
    fmt: str,
    version: int,
    kind: SimilarityKind,
    q: int,
    **sections,
) -> None:
    """The one writer: header, then *sections* in order, then checksum.

    Every document but a version-1 collection snapshot is sealed with
    :func:`document_checksum`; the write is atomic
    (:func:`atomic_write_text`).
    """
    payload = {
        "format": fmt,
        "version": version,
        "similarity": kind.value,
        "q": q,
        **sections,
    }
    if (fmt, version) != (FORMAT_NAME, FORMAT_VERSION):
        payload["checksum"] = document_checksum(payload)
    with span("snapshot.save", path=str(path)):
        atomic_write_text(path, json.dumps(payload) + "\n")
    observe_snapshot("save")


def _raw_sets(collection: SetCollection) -> list:
    return [[element.text for element in record.elements] for record in collection]


def save_collection(path: str | Path, collection: SetCollection) -> None:
    """Write a version-1 collection snapshot (raw sets + tokenizer settings)."""
    tokenizer = collection.tokenizer
    write_document(
        path, FORMAT_NAME, FORMAT_VERSION, tokenizer.kind, tokenizer.q,
        sets=_raw_sets(collection),
    )


def save_service_snapshot(
    path: str | Path,
    collection: SetCollection,
    metadata: dict | None = None,
) -> None:
    """Write a version-2 snapshot: collection + tombstones + metadata.

    *metadata* is an arbitrary JSON-serialisable dict (the service
    stores its write generation and lifetime counters there).
    """
    tokenizer = collection.tokenizer
    write_document(
        path, FORMAT_NAME, SERVICE_FORMAT_VERSION, tokenizer.kind, tokenizer.q,
        sets=_raw_sets(collection),
        deleted=sorted(collection.deleted_ids),
        service=metadata if metadata is not None else {},
    )


def save_shard_snapshot(
    path: str | Path,
    kind: SimilarityKind,
    q: int,
    sets: list,
    deleted: list,
    shard_meta: dict,
) -> None:
    """Write a version-3 shard snapshot from raw shard state.

    Unlike :func:`save_service_snapshot` this takes raw element-string
    sets rather than a tokenised collection: the cluster coordinator
    holds raw texts (its directory) and must not pay a full
    re-tokenisation just to snapshot a shard.  *deleted* holds the
    shard-local tombstoned ids; *shard_meta* is the cluster-shard
    descriptor (shard index, local-to-global map).
    """
    write_document(
        path, FORMAT_NAME, SHARD_FORMAT_VERSION, kind, q,
        sets=[list(elements) for elements in sets],
        deleted=sorted(deleted),
        service={},
        shard=shard_meta,
    )


def save_cluster_manifest(
    path: str | Path,
    kind: SimilarityKind,
    q: int,
    shard_files: list,
    metadata: dict,
) -> None:
    """Write a cluster manifest naming its shard files.

    *shard_files* are stored relative to the manifest's directory so
    the whole bundle moves as one unit; *metadata* carries the
    coordinator state (placement, global tombstones, generation,
    stats).
    """
    write_document(
        path, CLUSTER_FORMAT_NAME, CLUSTER_FORMAT_VERSION, kind, q,
        shards=[str(name) for name in shard_files],
        cluster=metadata,
    )


# ----------------------------------------------------------------------
# The reader
# ----------------------------------------------------------------------
def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _ints(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _check_fields(path: str | Path, payload: dict) -> None:
    """The shape of every field the document's format has."""
    noun = _NOUNS[payload["format"]]

    def require(holds: bool, what: str) -> None:
        if not holds:
            raise SnapshotFormatError(f"{path}: malformed {noun}: {what}")

    def section(name: str) -> dict:
        value = payload.get(name, {})
        require(isinstance(value, dict), f"'{name}' must be an object")
        generation = value.get("generation", 0)
        require(_is_int(generation), f"'{name}.generation' must be an int")
        return value

    def tombstones(ids, bound: int) -> None:
        require(isinstance(ids, list), "'deleted' must be a list of set ids")
        for set_id in ids:
            valid = _is_int(set_id) and 0 <= set_id < bound
            require(valid, f"invalid tombstoned set id {set_id!r}")
        require(len(set(ids)) == len(ids), "'deleted' repeats a set id")

    kind, q = payload.get("similarity"), payload.get("q")
    require(kind in _KINDS, f"'similarity' is not a similarity kind: {kind!r}")
    require(_is_int(q) and q >= 1, f"'q' must be a positive int, got {q!r}")
    if payload["format"] == CLUSTER_FORMAT_NAME:
        require(_strings(payload.get("shards")), "'shards' must be file names")
        cluster = section("cluster")
        placement = cluster.get("placement", [])
        pairs = isinstance(placement, list) and all(
            _ints(pair) and len(pair) == 2 for pair in placement
        )
        require(pairs, "'placement' must be a list of [shard, local] pairs")
        tombstones(cluster.get("deleted", []), len(placement))
        return
    sets = payload.get("sets")
    texts = isinstance(sets, list) and all(map(_strings, sets))
    require(texts, "'sets' must be a list of lists of element strings")
    tombstones(payload.get("deleted", []), len(sets))
    section("service")
    table = section("shard").get("local_to_global", [])
    require(_ints(table), "'local_to_global' must be a list of global set ids")


def _read_payload(path: str | Path) -> dict:
    """Read one document of either format and check it; never tokenises.

    Checks, in order: the JSON parse, the magic, the version, the
    checksum and the shape of every field (:func:`_check_fields`).
    Each failure is a typed :class:`SnapshotError` naming *path*.
    """
    with span("snapshot.load", path=str(path)), open(
        path, encoding="utf-8"
    ) as handle:
        try:
            payload = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SnapshotFormatError(
                f"{path}: truncated or invalid JSON: {exc}"
            ) from exc
    observe_snapshot("load")
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt not in _VERSIONS:
        raise SnapshotFormatError(
            f"{path}: not a {FORMAT_NAME} snapshot or a "
            f"{CLUSTER_FORMAT_NAME} manifest"
        )
    version = payload.get("version")
    if not _is_int(version) or version not in _VERSIONS[fmt]:
        raise SnapshotVersionError(
            f"{path}: unsupported {_NOUNS[fmt]} version {version!r} "
            f"(this build reads version(s) "
            f"{', '.join(map(str, _VERSIONS[fmt]))})"
        )
    _verify_checksum(path, payload)
    _check_fields(path, payload)
    return payload


def read_document(
    path: str | Path,
    fmt: str | None = None,
    expected_kind: SimilarityKind | None = None,
    expected_q: int | None = None,
) -> dict:
    """The one reader: a checked document of format *fmt* (any if ``None``).

    When *expected_kind* / *expected_q* are given, mismatched tokenizer
    settings raise ``ValueError`` instead of silently serving results
    under the wrong similarity function.
    """
    payload = _read_payload(path)
    if fmt is not None and payload["format"] != fmt:
        raise SnapshotFormatError(f"{path}: not a {fmt} {_NOUNS[fmt]}")
    noun = _NOUNS[payload["format"]]
    kind = SimilarityKind(payload["similarity"])
    q = payload["q"]
    if expected_kind is not None and kind is not expected_kind:
        raise ValueError(
            f"{path}: {noun} was tokenised for {kind.value!r}, "
            f"expected {expected_kind.value!r}"
        )
    if expected_q is not None and q != expected_q:
        raise ValueError(
            f"{path}: {noun} was tokenised with q={q}, expected q={expected_q}"
        )
    return payload


def _collection_from_payload(payload: dict) -> SetCollection:
    """Tokenise a checked collection document (tombstones re-applied)."""
    collection = SetCollection.from_strings(
        payload["sets"],
        kind=SimilarityKind(payload["similarity"]),
        q=payload["q"],
    )
    for set_id in payload.get("deleted", []):
        collection.remove_set(set_id)
    return collection


def load_collection(path: str | Path) -> SetCollection:
    """Read any collection snapshot version (tombstones are re-applied,
    service and shard metadata ignored)."""
    return _collection_from_payload(read_document(path, FORMAT_NAME))


def load_service_snapshot(
    path: str | Path,
    expected_kind: SimilarityKind | None = None,
    expected_q: int | None = None,
) -> tuple[SetCollection, dict]:
    """Read a snapshot: (collection with tombstones, service metadata).

    Version-1 files load too (empty metadata), so a service can adopt a
    plain dataset snapshot.  Tokenizer expectations are
    :func:`read_document`'s.
    """
    payload = read_document(path, FORMAT_NAME, expected_kind, expected_q)
    return _collection_from_payload(payload), payload.get("service", {})


def load_shard_snapshot(
    path: str | Path,
    expected_kind: SimilarityKind | None = None,
    expected_q: int | None = None,
) -> tuple[SetCollection, dict]:
    """Read a snapshot: (collection with tombstones, shard metadata).

    Lower-version files load too (empty shard metadata).  The file is
    read once, so the collection and the metadata come from one version
    of it.
    """
    payload = read_document(path, FORMAT_NAME, expected_kind, expected_q)
    return _collection_from_payload(payload), payload.get("shard", {})


def load_cluster_manifest(path: str | Path) -> dict:
    """Read a cluster manifest: its checked document (shard files are
    not opened here)."""
    return read_document(path, CLUSTER_FORMAT_NAME)


# ----------------------------------------------------------------------
# Fault injection: snapshot corruption helpers
# ----------------------------------------------------------------------
def truncate_snapshot(path: str | Path, keep_fraction: float = 0.5) -> int:
    """Truncate a snapshot file in place; returns the bytes kept.

    Models the crash classes the VDBMS bug study files under
    *incomplete persistence*: a writer (or the kernel) died before the
    tail of the file reached disk.  The repository's own writers are
    atomic (:func:`atomic_write_text`), so this helper exists to forge
    the non-atomic writes of other systems -- the chaos suite uses it
    to pin that every loader rejects the result with a typed
    :class:`SnapshotFormatError` instead of a parser traceback.
    """
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError(f"keep_fraction must be in [0, 1), got {keep_fraction}")
    path = Path(path)
    size = path.stat().st_size
    keep = int(size * keep_fraction)
    with open(path, "rb+") as handle:
        handle.truncate(keep)
    return keep


def bitflip_snapshot(
    path: str | Path, offset: "int | None" = None, seed: int = 0
) -> int:
    """Flip one bit of a snapshot file in place; returns the offset.

    Models silent media corruption.  With *offset* ``None`` the byte is
    chosen deterministically from *seed*, so a seeded fault plan
    corrupts the same byte on every replay.  The corrupted file may
    still be valid JSON (a flipped bit inside a string literal), so
    callers asserting load failure should corrupt structural bytes or
    check content-level validation too.
    """
    import random

    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"{path}: cannot bit-flip an empty file")
    if offset is None:
        offset = random.Random(seed).randrange(len(data))
    if not 0 <= offset < len(data):
        raise ValueError(
            f"{path}: offset {offset} out of range for {len(data)} bytes"
        )
    data[offset] ^= 1 << 3
    path.write_bytes(bytes(data))
    return offset
