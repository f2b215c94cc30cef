"""Append-only write-ahead mutation log with checkpointed recovery.

Snapshots alone make durability opt-in: everything since the last
``save()`` dies with the process.  The WAL closes that hole with the
classic recipe -- every mutation is appended here *before* it is
applied in memory, so after a crash the state is reconstructable as

    last checkpoint snapshot  +  replay of the log tail.

Layout of a WAL directory::

    <dir>/checkpoint.json    version-2 service snapshot (the base state)
    <dir>/wal-00000001.log   numbered segments, append-only
    <dir>/wal-00000002.log   ...

Record grammar (one text line per record)::

    <blake2b-8 hex, 16 chars> SP <canonical JSON> LF

where the JSON object is ``{"args": {...}, "op": "add|remove|update",
"seq": N}`` serialised with sorted keys and no whitespace, and the
checksum covers exactly those JSON bytes.  ``seq`` is the service's
write generation *after* the mutation: record seqs are contiguous, and
replay skips every record with ``seq <= checkpoint generation``, which
is what makes recovery idempotent (recovering twice, or replaying an
already-applied tail, is a no-op).

Torn-tail rule: a crash can tear at most the record being appended, so
a record that fails to decode is tolerated -- dropped and reported --
only when it is the *last* record of the last non-empty segment (and
every later segment is empty).  Anywhere else it is
:class:`WalCorruptionError`: the log was damaged after writing, and
silently skipping interior records would replay a different history.

Checkpointing (wired to ``compact()``/``save()``) atomically rewrites
``checkpoint.json``, rotates to a fresh segment, then deletes the old
segments.  A crash anywhere in that sequence is safe: the checkpoint
write is atomic, and leftover pre-checkpoint segments are skipped by
the seq rule on the next recovery.

A new :class:`WriteAheadLog` never appends to an existing segment --
it always opens the next-numbered one -- so recovery never has to
distinguish "torn tail" from "half-old, half-new segment".
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

from repro.io.crash import crash_point
from repro.io.persistence import (
    FORMAT_NAME,
    fsync_directory,
    load_service_snapshot,
    read_document,
)
from repro.obs.instrument import observe_wal_append, observe_wal_checkpoint
from repro.obs.trace import span
from repro.settings import resolve

#: File name of the checkpoint snapshot inside a WAL directory.
CHECKPOINT_NAME = "checkpoint.json"
#: Mutation operations a WAL record may carry.
WAL_OPS = ("add", "remove", "update")
#: Hex digits in a blake2b-8 record checksum.
_CHECKSUM_CHARS = 16

_SEGMENT_PATTERN = re.compile(r"^wal-(\d{8})\.log$")

#: Every named crash point in the WAL code path, in code order.  The
#: sweep harness enumerates these; keep in sync with the crash_point()
#: call sites below.
WAL_CRASH_POINTS = (
    "wal.append.before_write",
    "wal.append.after_write",
    "wal.checkpoint.before_snapshot",
    "wal.checkpoint.after_snapshot",
    "wal.checkpoint.after_rotate",
    "wal.checkpoint.after_truncate",
)


class WalError(RuntimeError):
    """Base class for write-ahead-log failures (bad directory, closed
    log, attempt to open a fresh log over an existing one)."""


class WalCorruptionError(WalError):
    """The log is damaged beyond the one torn trailing record the
    format tolerates: an interior record fails its checksum, record
    seqs have a gap, or a torn record is followed by newer data."""


@dataclass(frozen=True)
class WalRecord:
    """One logged mutation: (seq, op, args).

    ``seq`` is the service write generation after applying the
    mutation; ``args`` carries the op's JSON-serialisable arguments
    (``elements`` for add/update, ``set_id`` for remove/update).
    """

    seq: int
    op: str
    args: dict


@dataclass(frozen=True)
class RecoveryReport:
    """What :func:`recover_state` found: checkpoint + tail statistics."""

    checkpoint_generation: int
    replayed: int
    skipped: int
    segments: int
    torn_tail: "dict | None" = None

    def to_dict(self) -> dict:
        """JSON-serialisable form (for logs, CLI output, artifacts)."""
        return {
            "checkpoint_generation": self.checkpoint_generation,
            "replayed": self.replayed,
            "skipped": self.skipped,
            "segments": self.segments,
            "torn_tail": self.torn_tail,
        }


def encode_record(record: WalRecord) -> bytes:
    """Serialise one record to its checksummed line (see module doc)."""
    body = json.dumps(
        {"args": record.args, "op": record.op, "seq": record.seq},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.blake2b(
        body.encode("utf-8"), digest_size=8
    ).hexdigest()
    return f"{digest} {body}\n".encode("utf-8")


def decode_record(line: bytes) -> WalRecord:
    """Parse one record line; raises :class:`WalCorruptionError`.

    Accepts the line with or without its trailing newline (a torn
    write can lose just the terminator while the payload survived).
    """
    text = line.rstrip(b"\n").decode("utf-8", errors="strict")
    if len(text) < _CHECKSUM_CHARS + 2 or text[_CHECKSUM_CHARS] != " ":
        raise WalCorruptionError(f"record is not '<checksum> <json>': {text[:40]!r}")
    stored, body = text[:_CHECKSUM_CHARS], text[_CHECKSUM_CHARS + 1 :]
    actual = hashlib.blake2b(body.encode("utf-8"), digest_size=8).hexdigest()
    if actual != stored:
        raise WalCorruptionError(
            f"record checksum mismatch (stored {stored}, computed {actual})"
        )
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:  # pragma: no cover - checksum catches
        raise WalCorruptionError(f"record body is not JSON: {exc}") from exc
    if (
        not isinstance(payload, dict)
        or not isinstance(payload.get("seq"), int)
        or payload.get("op") not in WAL_OPS
        or not isinstance(payload.get("args"), dict)
    ):
        raise WalCorruptionError(f"record fields malformed: {body[:60]!r}")
    return WalRecord(seq=payload["seq"], op=payload["op"], args=payload["args"])


def list_segments(directory: str | os.PathLike) -> "list[Path]":
    """The WAL segments under *directory*, in segment-number order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        match = _SEGMENT_PATTERN.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    return [path for _, path in sorted(found)]


def wal_directory_in_use(directory: str | os.PathLike) -> bool:
    """True when *directory* already holds a checkpoint or segments."""
    directory = Path(directory)
    return (directory / CHECKPOINT_NAME).exists() or bool(
        list_segments(directory)
    )


def segment_record_offsets(path: str | os.PathLike) -> "list[int]":
    """Byte offsets of each record boundary in a segment, 0 to EOF.

    ``offsets[i]`` is where record ``i`` starts; the final entry is the
    file size.  Torn-append simulations truncate a copy of the segment
    at (or between) these offsets.
    """
    data = Path(path).read_bytes()
    offsets = [0]
    position = 0
    while True:
        newline = data.find(b"\n", position)
        if newline < 0:
            break
        position = newline + 1
        offsets.append(position)
    if position < len(data):  # unterminated trailing partial record
        offsets.append(len(data))
    return offsets


def _read_segment(
    path: Path, torn_allowed: bool
) -> "tuple[list[WalRecord], dict | None]":
    """Decode one segment; returns (records, torn-tail report or None)."""
    data = path.read_bytes()
    if not data:
        return [], None
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()  # file ends with the terminator, as written
    records = []
    for index, line in enumerate(lines):
        try:
            records.append(decode_record(line))
        except (WalCorruptionError, UnicodeDecodeError) as exc:
            if torn_allowed and index == len(lines) - 1:
                return records, {
                    "segment": path.name,
                    "record_index": index,
                    "bytes": len(line),
                    "error": str(exc),
                }
            raise WalCorruptionError(
                f"{path}: corrupt interior record {index}: {exc}"
            ) from exc
    return records, None


def read_wal_records(
    directory: str | os.PathLike,
) -> "tuple[list[WalRecord], dict | None]":
    """Read every record in a WAL directory, tolerating one torn tail.

    Returns ``(records, torn)`` where *torn* describes the dropped
    trailing record (or ``None``).  Raises
    :class:`WalCorruptionError` for damage the format does not
    tolerate: interior corruption, a torn record followed by non-empty
    segments, or non-contiguous record seqs.
    """
    segments = list_segments(directory)
    non_empty = [p for p in segments if p.stat().st_size > 0]
    records: "list[WalRecord]" = []
    torn = None
    for path in non_empty:
        torn_allowed = path == non_empty[-1]
        seg_records, torn = _read_segment(path, torn_allowed)
        records.extend(seg_records)
    for previous, current in zip(records, records[1:]):
        if current.seq != previous.seq + 1:
            raise WalCorruptionError(
                f"{directory}: record seq jumps from {previous.seq} to "
                f"{current.seq}; the log lost interior records"
            )
    return records, torn


class WriteAheadLog:
    """The append side: checksummed appends, rotation, checkpointing.

    One instance owns one directory.  Opening always starts a fresh
    segment numbered after the highest existing one; reading existing
    records is :func:`read_wal_records`' job (see
    :func:`recover_state` for the full recovery recipe).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        segment_bytes: "int | None" = None,
        fsync: "bool | None" = None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = resolve(
            "SILKMOTH_WAL_SEGMENT_BYTES", segment_bytes
        )
        self.fsync = resolve("SILKMOTH_FSYNC", fsync)
        self.appended = 0
        self._handle = None
        existing = list_segments(self.directory)
        last = _SEGMENT_PATTERN.match(existing[-1].name) if existing else None
        self._segment_index = int(last.group(1)) if last else 0
        self._open_next_segment()

    @property
    def checkpoint_path(self) -> Path:
        """Where this log's checkpoint snapshot lives."""
        return self.directory / CHECKPOINT_NAME

    @property
    def segment_index(self) -> int:
        """The number of the segment currently being appended to."""
        return self._segment_index

    def _open_next_segment(self) -> None:
        self._segment_index += 1
        path = self.directory / f"wal-{self._segment_index:08d}.log"
        self._handle = open(path, "ab")
        self._segment_records = 0
        if self.fsync:
            fsync_directory(self.directory)

    def append(self, op: str, args: dict, seq: int) -> WalRecord:
        """Append one mutation record durably; returns the record.

        The caller appends *before* applying the mutation in memory;
        *seq* is the generation the service will be at afterwards.
        Rotates to a new segment when the current one is full.
        """
        if self._handle is None:
            raise WalError(f"{self.directory}: log is closed")
        if op not in WAL_OPS:
            raise ValueError(f"unknown WAL op {op!r}")
        record = WalRecord(seq=int(seq), op=op, args=dict(args))
        data = encode_record(record)
        with span("wal.append", op=op, seq=record.seq):
            crash_point("wal.append.before_write")
            self._handle.write(data)
            self._handle.flush()
            crash_point("wal.append.after_write")
            if self.fsync:
                os.fsync(self._handle.fileno())
        observe_wal_append(op, len(data))
        self.appended += 1
        self._segment_records += 1
        if self._handle.tell() >= self.segment_bytes:
            self.rotate()
        return record

    def rotate(self) -> None:
        """Close the active segment and start appending to the next."""
        if self._handle is None:
            raise WalError(f"{self.directory}: log is closed")
        self._handle.close()
        self._open_next_segment()

    def checkpoint(self, write_snapshot) -> None:
        """Snapshot the current state and truncate the log.

        *write_snapshot* is called with the checkpoint path and must
        write atomically (the service passes its snapshot writer).
        Order matters for crash safety: snapshot first (atomic
        replace), then rotate to a fresh segment, then delete the old
        segments -- a crash after the snapshot merely leaves segments
        whose records recovery will skip by seq.
        """
        if self._handle is None:
            raise WalError(f"{self.directory}: log is closed")
        with span("wal.checkpoint", dir=str(self.directory)) as checkpoint_span:
            crash_point("wal.checkpoint.before_snapshot")
            write_snapshot(self.checkpoint_path)
            crash_point("wal.checkpoint.after_snapshot")
            old_segments = list_segments(self.directory)
            self.rotate()
            crash_point("wal.checkpoint.after_rotate")
            for path in old_segments:
                if path.exists():
                    path.unlink()
            if self.fsync:
                fsync_directory(self.directory)
            crash_point("wal.checkpoint.after_truncate")
            checkpoint_span.set_attr("truncated_segments", len(old_segments))
        observe_wal_checkpoint()

    def position(self) -> dict:
        """Where the log stands: segment number, records, totals."""
        return {
            "segment": self._segment_index,
            "segment_records": self._segment_records,
            "appended": self.appended,
        }

    def close(self) -> None:
        """Release the file handle (idempotent); appends then fail."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def recover_state(
    directory: str | os.PathLike,
    expected_kind=None,
    expected_q: "int | None" = None,
):
    """Load a WAL directory's checkpoint and compute the replay tail.

    Returns ``(collection, metadata, replay, report)``: the checkpoint
    collection (``None`` when no checkpoint was ever written -- the
    caller starts empty), its service metadata, the list of
    :class:`WalRecord` to re-apply (seq beyond the checkpoint
    generation, contiguity-checked), and a :class:`RecoveryReport`.
    Pure inspection: nothing on disk is modified, so it is safe to call
    repeatedly (and is also what ``silkmoth wal inspect`` uses).
    """
    directory = Path(directory)
    checkpoint = directory / CHECKPOINT_NAME
    if not checkpoint.exists() and not list_segments(directory):
        raise WalError(
            f"{directory}: not a WAL directory (no {CHECKPOINT_NAME} and "
            f"no wal-*.log segments)"
        )
    collection = None
    metadata: dict = {}
    if checkpoint.exists():
        collection, metadata = load_service_snapshot(
            checkpoint, expected_kind=expected_kind, expected_q=expected_q
        )
    base_generation = int(metadata.get("generation", 0))
    records, torn = read_wal_records(directory)
    replay = [r for r in records if r.seq > base_generation]
    if replay and replay[0].seq != base_generation + 1:
        raise WalCorruptionError(
            f"{directory}: log tail starts at seq {replay[0].seq} but the "
            f"checkpoint generation is {base_generation}; records between "
            f"were lost"
        )
    report = RecoveryReport(
        checkpoint_generation=base_generation,
        replayed=len(replay),
        skipped=len(records) - len(replay),
        segments=len(list_segments(directory)),
        torn_tail=torn,
    )
    return collection, metadata, replay, report


def describe_wal(directory: str | os.PathLike) -> dict:
    """Human-oriented summary of a WAL directory (CLI ``wal inspect``).

    Decodes every segment (tolerating the one legal torn tail) and
    reads the checkpoint through the snapshot reader, so a damaged one
    is a typed error naming it; no service is built.
    """
    directory = Path(directory)
    checkpoint = directory / CHECKPOINT_NAME
    if not checkpoint.exists() and not list_segments(directory):
        raise WalError(
            f"{directory}: not a WAL directory (no checkpoint, no segments)"
        )
    summary: dict = {"directory": str(directory), "checkpoint": None}
    if checkpoint.exists():
        payload = read_document(checkpoint, FORMAT_NAME)
        summary["checkpoint"] = {
            "generation": payload.get("service", {}).get("generation", 0),
            "sets": len(payload["sets"]),
            "deleted": len(payload.get("deleted", [])),
            "bytes": checkpoint.stat().st_size,
        }
    records, torn = read_wal_records(directory)
    segments = []
    for path in list_segments(directory):
        seg_records, seg_torn = _read_segment(path, torn_allowed=True)
        segments.append(
            {
                "name": path.name,
                "bytes": path.stat().st_size,
                "records": len(seg_records),
                "first_seq": seg_records[0].seq if seg_records else None,
                "last_seq": seg_records[-1].seq if seg_records else None,
                "torn": seg_torn is not None,
            }
        )
    base = (summary["checkpoint"] or {}).get("generation", 0)
    summary["segments"] = segments
    summary["records"] = len(records)
    summary["replayable"] = sum(1 for r in records if r.seq > base)
    summary["torn_tail"] = torn
    return summary
