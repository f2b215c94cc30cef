"""Write-ahead log: record codec, rotation, recovery, service wiring.

The durability contract under test: every mutation is appended to the
log *before* it is applied, so "last checkpoint + replay of the log
tail" reconstructs the exact service state -- bit-identical by
:meth:`~repro.service.SilkMothService.state_fingerprint` -- after any
crash.  Recovery is idempotent (recovering twice is a no-op), the
format tolerates exactly one torn trailing record, and anything worse
is a loud :class:`~repro.io.wal.WalCorruptionError`, never a silently
different history.  The crash-point sweeps live in
``test_wal_crash_sweep.py``; this module covers the format and the
single-node service integration.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.config import SilkMothConfig
from repro.io.wal import (
    RecoveryReport,
    WalCorruptionError,
    WalError,
    WalRecord,
    WriteAheadLog,
    decode_record,
    describe_wal,
    encode_record,
    list_segments,
    read_wal_records,
    recover_state,
    segment_record_offsets,
    wal_directory_in_use,
)
from repro.obs.metrics import get_registry
from repro.service import SilkMothService
from repro.settings import resolve
from repro.sim.functions import SimilarityKind

CONFIG = SilkMothConfig(similarity=SimilarityKind.JACCARD, delta=0.5)

EDIT_CONFIG = SilkMothConfig(
    similarity=SimilarityKind.EDS, delta=0.5, alpha=0.8
)


def _records(n, start=1):
    return [
        WalRecord(seq=start + i, op="add", args={"elements": [f"word {i}"]})
        for i in range(n)
    ]


def _mutation_series() -> dict:
    """``silkmoth_mutations_total`` in this process, kind -> count."""
    family = get_registry().get("silkmoth_mutations_total")
    return {} if family is None else {
        labels[0]: child.value for labels, child in family.series()
    }


def _service(tmp_path, config=CONFIG, **kwargs):
    kwargs.setdefault("wal_fsync", False)
    return SilkMothService(config, wal_dir=tmp_path / "wal", **kwargs)


def _recover(tmp_path, config=CONFIG, **kwargs):
    kwargs.setdefault("wal_fsync", False)
    return SilkMothService.recover(tmp_path / "wal", config, **kwargs)


class TestCodec:
    def test_round_trip(self):
        for record in _records(3) + [
            WalRecord(seq=9, op="remove", args={"set_id": 4}),
            WalRecord(
                seq=10, op="update", args={"set_id": 1, "elements": ["x"]}
            ),
        ]:
            assert decode_record(encode_record(record)) == record

    def test_newline_optional(self):
        record = _records(1)[0]
        line = encode_record(record)
        assert decode_record(line.rstrip(b"\n")) == record

    def test_checksum_guards_payload(self):
        line = bytearray(encode_record(_records(1)[0]))
        line[-5] ^= 0x01  # flip one payload bit
        with pytest.raises(WalCorruptionError, match="checksum mismatch"):
            decode_record(bytes(line))

    def test_garbage_rejected(self):
        with pytest.raises(WalCorruptionError):
            decode_record(b"not a wal record at all")
        with pytest.raises(WalCorruptionError, match="malformed"):
            # Valid checksum over a JSON body with a bad op.
            bad = WalRecord(seq=1, op="add", args={})
            line = encode_record(bad).replace(b'"add"', b'"nop"')
            body = line.split(b" ", 1)[1]
            import hashlib

            digest = hashlib.blake2b(
                body.rstrip(b"\n"), digest_size=8
            ).hexdigest()
            decode_record(digest.encode() + b" " + body)


class TestResolvers:
    def test_wal_dir_argument_env_and_false(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SILKMOTH_WAL_DIR", raising=False)
        assert resolve("SILKMOTH_WAL_DIR", None) is None
        assert resolve("SILKMOTH_WAL_DIR", tmp_path) == Path(tmp_path)
        monkeypatch.setenv("SILKMOTH_WAL_DIR", str(tmp_path / "env"))
        assert resolve("SILKMOTH_WAL_DIR", None) == tmp_path / "env"
        # False disables *explicitly*, ignoring the environment: shard
        # replicas must never share the env-named directory.
        assert resolve("SILKMOTH_WAL_DIR", False) is None
        monkeypatch.setenv("SILKMOTH_WAL_DIR", "")
        assert resolve("SILKMOTH_WAL_DIR", None) is None

    def test_segment_bytes(self, monkeypatch):
        monkeypatch.delenv("SILKMOTH_WAL_SEGMENT_BYTES", raising=False)
        assert resolve("SILKMOTH_WAL_SEGMENT_BYTES", None) == 1 << 20
        assert resolve("SILKMOTH_WAL_SEGMENT_BYTES", 4096) == 4096
        monkeypatch.setenv("SILKMOTH_WAL_SEGMENT_BYTES", "512")
        assert resolve("SILKMOTH_WAL_SEGMENT_BYTES", None) == 512
        with pytest.raises(ValueError):
            resolve("SILKMOTH_WAL_SEGMENT_BYTES", 0)


class TestWriteAheadLog:
    def test_append_and_read_back(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync=False)
        expected = _records(5)
        for record in expected:
            log.append(record.op, record.args, record.seq)
        log.close()
        records, torn = read_wal_records(tmp_path)
        assert records == expected
        assert torn is None

    def test_rotation_and_fresh_segment_numbering(self, tmp_path):
        log = WriteAheadLog(tmp_path, segment_bytes=1, fsync=False)
        for record in _records(3):
            log.append(record.op, record.args, record.seq)
        log.close()
        # segment_bytes=1: every append rotates, so records spread over
        # one segment each (plus the fresh empty one).
        names = [p.name for p in list_segments(tmp_path)]
        assert len(names) == 4
        # Reopening never appends to an existing segment.
        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert reopened.segment_index == 5
        reopened.append("add", {"elements": ["later"]}, 4)
        reopened.close()
        records, torn = read_wal_records(tmp_path)
        assert [r.seq for r in records] == [1, 2, 3, 4]
        assert torn is None

    def test_closed_log_refuses_appends(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync=False)
        log.close()
        log.close()  # idempotent
        with pytest.raises(WalError, match="closed"):
            log.append("add", {"elements": []}, 1)
        with pytest.raises(WalError, match="closed"):
            log.rotate()

    def test_unknown_op_rejected(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync=False)
        with pytest.raises(ValueError, match="unknown WAL op"):
            log.append("drop", {}, 1)
        log.close()

    def test_position_counts(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync=False)
        for record in _records(2):
            log.append(record.op, record.args, record.seq)
        assert log.position() == {
            "segment": 1,
            "segment_records": 2,
            "appended": 2,
        }
        log.close()

    def test_directory_helpers(self, tmp_path):
        assert not wal_directory_in_use(tmp_path)
        log = WriteAheadLog(tmp_path, fsync=False)
        log.append("add", {"elements": []}, 1)
        log.close()
        assert wal_directory_in_use(tmp_path)
        assert not wal_directory_in_use(tmp_path / "never-created")


class TestTornTail:
    def _write(self, tmp_path, n):
        log = WriteAheadLog(tmp_path, fsync=False)
        for record in _records(n):
            log.append(record.op, record.args, record.seq)
        log.close()
        return list_segments(tmp_path)[0]

    def test_torn_last_record_tolerated_and_reported(self, tmp_path):
        segment = self._write(tmp_path, 3)
        offsets = segment_record_offsets(segment)
        # Cut mid-way through the last record.
        segment.write_bytes(segment.read_bytes()[: offsets[-1] - 7])
        records, torn = read_wal_records(tmp_path)
        assert [r.seq for r in records] == [1, 2]
        assert torn is not None and torn["segment"] == segment.name

    def test_interior_corruption_raises(self, tmp_path):
        segment = self._write(tmp_path, 3)
        data = bytearray(segment.read_bytes())
        data[segment_record_offsets(segment)[1] + 20] ^= 0x01
        segment.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError, match="interior"):
            read_wal_records(tmp_path)

    def test_torn_record_followed_by_data_raises(self, tmp_path):
        self._write(tmp_path, 2)
        log = WriteAheadLog(tmp_path, fsync=False)  # opens segment 2
        log.append("add", {"elements": ["after"]}, 3)
        log.close()
        first = list_segments(tmp_path)[0]
        first.write_bytes(first.read_bytes()[:-9])  # tear segment 1's tail
        with pytest.raises(WalCorruptionError):
            read_wal_records(tmp_path)

    def test_seq_gap_raises(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync=False)
        log.append("add", {"elements": []}, 1)
        log.append("add", {"elements": []}, 3)
        log.close()
        with pytest.raises(WalCorruptionError, match="seq jumps"):
            read_wal_records(tmp_path)


class TestServiceIntegration:
    def test_opt_in_via_kwarg_and_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SILKMOTH_WAL_DIR", raising=False)
        plain = SilkMothService(CONFIG)
        assert plain.wal is None and plain.wal_position() is None
        monkeypatch.setenv("SILKMOTH_WAL_DIR", str(tmp_path / "env-wal"))
        monkeypatch.setenv("SILKMOTH_FSYNC", "0")
        via_env = SilkMothService(CONFIG)
        assert via_env.wal is not None
        assert via_env.wal.directory == tmp_path / "env-wal"
        via_env.close()
        # close() releases the handle; mutations then fail loudly
        # rather than running un-logged.
        with pytest.raises(WalError, match="closed"):
            via_env.add_set(["late write"])

    def test_load_and_recover_with_the_env_directory_set(
        self, tmp_path, monkeypatch
    ):
        """The services load() and recover() build internally ignore
        SILKMOTH_WAL_DIR; only the resolved target directory is used.

        They used to attach a fresh log to the env directory first and
        then fail on it ("already holds a log").
        """
        monkeypatch.setenv("SILKMOTH_FSYNC", "0")
        service = _service(tmp_path)
        service.add_set(["ash bay", "elm"])
        service.save(tmp_path / "snap.json")
        expected = service.search(["ash bay", "elm"])
        service.close()
        monkeypatch.setenv("SILKMOTH_WAL_DIR", str(tmp_path / "env-wal"))
        loaded = SilkMothService.load(tmp_path / "snap.json", CONFIG)
        assert loaded.wal.directory == tmp_path / "env-wal"
        assert loaded.search(["ash bay", "elm"]) == expected
        loaded.close()
        monkeypatch.setenv("SILKMOTH_WAL_DIR", str(tmp_path / "wal"))
        recovered = _recover(tmp_path)
        assert recovered.wal.directory == tmp_path / "wal"
        assert recovered.search(["ash bay", "elm"]) == expected
        recovered.close()

    def test_mutations_recover_bit_identically(self, tmp_path):
        service = _service(tmp_path)
        service.add_set(["ash bay", "elm"])
        service.add_set(["ash common", "fir"])
        service.update_set(1, ["oak sky"])
        service.remove_set(0)
        service.add_set(["yew ivy", ""])
        fingerprint = service.state_fingerprint()
        results = service.search(["ash bay", "oak sky"])
        service.close()

        recovered = _recover(tmp_path)
        assert recovered.state_fingerprint() == fingerprint
        assert recovered.search(["ash bay", "oak sky"]) == results
        assert recovered.wal_recovery is not None
        recovered.close()

    def test_recover_twice_is_a_no_op(self, tmp_path):
        service = _service(tmp_path)
        for i in range(6):
            service.add_set([f"word{i} common"])
        service.remove_set(2)
        fingerprint = service.state_fingerprint()
        service.close()

        first = _recover(tmp_path)
        assert first.state_fingerprint() == fingerprint
        first.close()
        second = _recover(tmp_path)
        assert second.state_fingerprint() == fingerprint
        # The first recovery checkpointed, so the second replays nothing.
        assert second.wal_recovery.replayed == 0
        second.close()

    def test_recover_without_checkpoint_param_keeps_log(self, tmp_path):
        service = _service(tmp_path)
        service.add_set(["ash"])
        service.close()
        replayable_before = describe_wal(tmp_path / "wal")["replayable"]
        forensic = _recover(tmp_path, checkpoint=False)
        forensic.close()
        assert (
            describe_wal(tmp_path / "wal")["replayable"]
            == replayable_before
        )

    def test_wal_on_equals_wal_off(self, tmp_path):
        """Acceptance: zero-crash WAL service == WAL-less service.

        With or without fsync: the log buys durability, never different
        answers.
        """
        with_wal = _service(tmp_path)
        with_fsync = SilkMothService(
            CONFIG, wal_dir=tmp_path / "wal-fsync", wal_fsync=True
        )
        without = SilkMothService(CONFIG)
        for service in (with_wal, with_fsync, without):
            service.add_set(["ash bay", "elm"])
            service.add_set(["ash common"])
            service.update_set(0, ["fir oak"])
            service.remove_set(1)
        assert (
            with_wal.state_fingerprint()
            == with_fsync.state_fingerprint()
            == without.state_fingerprint()
        )
        reference = ["fir oak", "ash common"]
        assert (
            with_wal.search(reference)
            == with_fsync.search(reference)
            == without.search(reference)
        )
        with_wal.close()
        with_fsync.close()

    def test_full_replay_equals_a_snapshot_load(self, tmp_path):
        """No checkpoint at all: replaying the whole log lands on the
        state a snapshot of the same history loads."""
        logged = _service(tmp_path, compact_dead_fraction=1.0)
        oracle = SilkMothService(CONFIG, compact_dead_fraction=1.0)
        for service in (logged, oracle):
            for i in range(8):
                service.add_set([f"word{i} common", f"tail{i % 3}"])
            service.update_set(2, ["fir oak", "tail0"])
            service.remove_set(5)
        expected = logged.state_fingerprint()
        logged.close()
        oracle.save(tmp_path / "oracle.json")
        recovered = _recover(tmp_path, checkpoint=False)
        loaded = SilkMothService.load(tmp_path / "oracle.json", CONFIG)
        try:
            assert recovered.wal_recovery.replayed > 0
            assert recovered.state_fingerprint() == expected
            assert loaded.state_fingerprint() == expected
        finally:
            recovered.close()
            loaded.close()

    def test_invalid_mutations_not_logged(self, tmp_path):
        service = _service(tmp_path)
        service.add_set(["ash"])
        with pytest.raises(KeyError):
            service.remove_set(7)
        with pytest.raises(KeyError):
            service.update_set(7, ["x"])
        service.close()
        records, _ = read_wal_records(tmp_path / "wal")
        assert [r.op for r in records] == ["add"]

    def test_a_non_integer_set_id_changes_nothing(self, tmp_path):
        """``1.5``, ``True``, ``"0"``, ``-1``, a past-the-end id and a
        tombstoned id are the KeyError of the one live-id check.

        None of them may log a record, tombstone a set, change the live
        count, move the generation or count a mutation (in the stats or
        in ``silkmoth_mutations_total``): recovery must rebuild the
        very same state.
        """
        service = _service(tmp_path, config=SilkMothConfig(delta=0.5))
        for elements in (["a b", "c d"], ["a b", "c e"], ["x y"], ["q r"]):
            service.add_set(elements)
        service.remove_set(3)
        fingerprint = service.state_fingerprint()
        before = (
            service.generation, service.stats.mutations, _mutation_series()
        )
        for bad in (1.5, True, False, "0", None, -1, 4, 3):
            assert not service.is_live(bad)
            with pytest.raises(KeyError):
                service.remove_set(bad)
            with pytest.raises(KeyError):
                service.update_set(bad, ["q"])
        assert len(service) == 3
        assert service.state_fingerprint() == fingerprint
        assert (
            service.generation, service.stats.mutations, _mutation_series()
        ) == before
        service.close()
        records, _ = read_wal_records(tmp_path / "wal")
        assert [r.op for r in records] == ["add"] * 4 + ["remove"]
        recovered = _recover(tmp_path, config=SilkMothConfig(delta=0.5))
        assert recovered.state_fingerprint() == fingerprint
        assert [r.set_id for r in recovered.search(["a b", "c e"])] == [0, 1]
        recovered.close()

    def test_fresh_attach_over_existing_log_refused(self, tmp_path):
        service = _service(tmp_path)
        service.add_set(["ash"])
        service.close()
        with pytest.raises(WalError, match="recover"):
            _service(tmp_path)

    def test_save_checkpoints_the_log(self, tmp_path):
        service = _service(tmp_path)
        for i in range(4):
            service.add_set([f"word{i}"])
        assert describe_wal(tmp_path / "wal")["replayable"] == 4
        service.save(tmp_path / "snapshot.json")
        assert describe_wal(tmp_path / "wal")["replayable"] == 0
        service.close()
        recovered = _recover(tmp_path)
        assert recovered.generation == 4
        assert recovered.wal_recovery.replayed == 0
        recovered.close()

    def test_load_attaches_fresh_wal(self, tmp_path):
        plain = SilkMothService(CONFIG)
        plain.add_set(["ash bay"])
        plain.save(tmp_path / "snapshot.json")
        service = SilkMothService.load(
            tmp_path / "snapshot.json",
            CONFIG,
            wal_dir=tmp_path / "wal",
            wal_fsync=False,
        )
        service.add_set(["elm fir"])
        fingerprint = service.state_fingerprint()
        service.close()
        recovered = _recover(tmp_path)
        assert recovered.state_fingerprint() == fingerprint
        recovered.close()

    def test_recover_validates_tokenizer(self, tmp_path):
        service = _service(tmp_path, config=EDIT_CONFIG)
        service.add_set(["ash bay"])
        service.close()
        with pytest.raises(ValueError, match="tokenised"):
            _recover(tmp_path)  # CONFIG is jaccard, checkpoint is eds

    def test_recover_empty_directory_fails_loudly(self, tmp_path):
        with pytest.raises(WalError, match="not a WAL directory"):
            recover_state(tmp_path / "nothing")

    def test_edit_kind_round_trip(self, tmp_path):
        service = _service(tmp_path, config=EDIT_CONFIG)
        service.add_set(["silkmoth", "silkm0th"])
        service.add_set(["vldb paper"])
        service.remove_set(1)
        fingerprint = service.state_fingerprint()
        service.close()
        recovered = _recover(tmp_path, config=EDIT_CONFIG)
        assert recovered.state_fingerprint() == fingerprint
        recovered.close()


class TestRecoveryReport:
    def test_to_dict_round_trips_through_json(self):
        report = RecoveryReport(
            checkpoint_generation=3,
            replayed=2,
            skipped=1,
            segments=2,
            torn_tail={"segment": "wal-00000002.log"},
        )
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()


class TestCli:
    def _populate(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SILKMOTH_FSYNC", "0")
        service = _service(tmp_path)
        service.add_set(["ash bay", "elm"])
        service.add_set(["oak sky"])
        service.remove_set(0)
        fingerprint = service.state_fingerprint()
        service.close()
        return fingerprint

    def test_inspect_text_and_json(self, tmp_path, monkeypatch, capsys):
        self._populate(tmp_path, monkeypatch)
        assert main(["wal", "inspect", str(tmp_path / "wal")]) == 0
        text = capsys.readouterr().out
        assert "checkpoint:" in text and "replayable:" in text
        assert main(["wal", "inspect", str(tmp_path / "wal"), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["directory"] == str(tmp_path / "wal")
        assert summary["checkpoint"]["generation"] >= 0
        assert summary["replayable"] <= summary["records"]

    def test_recover_reports_and_snapshots(
        self, tmp_path, monkeypatch, capsys
    ):
        fingerprint = self._populate(tmp_path, monkeypatch)
        output = tmp_path / "recovered.json"
        code = main(
            [
                "wal",
                "recover",
                str(tmp_path / "wal"),
                "--output",
                str(output),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert fingerprint in err
        assert output.exists()
        collection_service = SilkMothService.load(output, CONFIG)
        assert collection_service.generation == 3

    def test_bad_directory_exits_2(self, tmp_path, capsys):
        assert main(["wal", "inspect", str(tmp_path / "missing")]) == 2
        assert "not a WAL directory" in capsys.readouterr().err
        assert main(["wal", "recover", str(tmp_path / "missing")]) == 2
