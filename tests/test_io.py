"""IO round-trips: loaders for the three application mappings, writers/readers."""

import json

import pytest

from repro.core.engine import DiscoveryResult, SearchResult
from repro.io import (
    load_csv_columns,
    load_csv_schema,
    load_jsonl_sets,
    load_string_sets,
    read_discovery_csv,
    read_discovery_json,
    read_search_csv,
    read_search_json,
    sets_from_iterable,
    write_discovery_csv,
    write_discovery_json,
    write_search_csv,
    write_search_json,
)


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(
        "city,zip,population\n"
        "Boston,02115,650000\n"
        "Seattle,98101,750000\n"
        "Chicago,60601,2700000\n"
        "Boston,02116,\n"
    )
    return path


class TestLoadStringSets:
    def test_lines_become_word_sets(self, tmp_path):
        path = tmp_path / "titles.txt"
        path.write_text("Database System Concepts\n\nSilkMoth Related Sets\n")
        sets = load_string_sets(path)
        assert sets == [
            ["Database", "System", "Concepts"],
            ["SilkMoth", "Related", "Sets"],
        ]

    def test_blank_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        assert load_string_sets(path) == []


class TestLoadJsonlSets:
    def test_valid_lines(self, tmp_path):
        path = tmp_path / "sets.jsonl"
        path.write_text('["a b", "c"]\n\n["d"]\n')
        assert load_jsonl_sets(path) == [["a b", "c"], ["d"]]

    def test_rejects_non_array(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"a": 1}\n')
        with pytest.raises(ValueError, match="expected a JSON array"):
            load_jsonl_sets(path)

    def test_rejects_non_string_elements(self, tmp_path):
        path = tmp_path / "bad2.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="elements must be strings"):
            load_jsonl_sets(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad3.jsonl"
        path.write_text("[not json\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_jsonl_sets(path)


class TestLoadCsvColumns:
    def test_basic_columns(self, csv_file):
        columns = load_csv_columns(csv_file, skip_numeric=False)
        assert set(columns) == {"city", "zip", "population"}
        assert columns["city"] == ["Boston", "Seattle", "Chicago", "Boston"]

    def test_skip_numeric_drops_all_number_columns(self, csv_file):
        columns = load_csv_columns(csv_file, skip_numeric=True)
        assert "population" not in columns
        # zip values are numeric strings too.
        assert "zip" not in columns
        assert "city" in columns

    def test_min_distinct(self, csv_file):
        columns = load_csv_columns(csv_file, skip_numeric=False, min_distinct=4)
        # city has 3 distinct values, zip 4, population 3 (empty dropped).
        assert "zip" in columns
        assert "city" not in columns

    def test_column_selection(self, csv_file):
        columns = load_csv_columns(
            csv_file, columns=["city"], skip_numeric=False
        )
        assert list(columns) == ["city"]

    def test_duplicate_headers_get_suffixes(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("name,name\nalpha,beta\n")
        columns = load_csv_columns(path)
        assert set(columns) == {"name", "name#2"}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert load_csv_columns(path) == {}

    def test_empty_cells_dropped(self, csv_file):
        columns = load_csv_columns(csv_file, skip_numeric=False)
        assert len(columns["population"]) == 3


class TestLoadCsvSchema:
    def test_one_element_per_attribute(self, csv_file):
        elements = load_csv_schema(csv_file)
        assert len(elements) == 3
        assert elements[0] == "Boston Seattle Chicago Boston"

    def test_sample_rows(self, csv_file):
        elements = load_csv_schema(csv_file, sample_rows=1)
        assert elements[0] == "Boston"


class TestSetsFromIterable:
    def test_normalises(self):
        assert sets_from_iterable([("a",), ["b", "c"]]) == [["a"], ["b", "c"]]


DISCOVERY = [
    DiscoveryResult(reference_id=0, set_id=3, score=2.25, relatedness=0.75),
    DiscoveryResult(reference_id=1, set_id=2, score=1.5, relatedness=0.5),
]
SEARCH = [
    SearchResult(set_id=3, score=2.25, relatedness=0.75),
    SearchResult(set_id=7, score=3.0, relatedness=1.0),
]


class TestWriterRoundTrips:
    def test_discovery_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        assert write_discovery_csv(path, DISCOVERY) == 2
        assert read_discovery_csv(path) == DISCOVERY

    def test_discovery_json(self, tmp_path):
        path = tmp_path / "out.json"
        assert write_discovery_json(path, DISCOVERY) == 2
        assert read_discovery_json(path) == DISCOVERY

    def test_search_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        assert write_search_csv(path, SEARCH) == 2
        assert read_search_csv(path) == SEARCH

    def test_search_json(self, tmp_path):
        path = tmp_path / "out.json"
        assert write_search_json(path, SEARCH) == 2
        assert read_search_json(path) == SEARCH

    def test_csv_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="expected header"):
            read_discovery_csv(path)
        with pytest.raises(ValueError, match="expected header"):
            read_search_csv(path)

    def test_json_is_valid_json(self, tmp_path):
        path = tmp_path / "out.json"
        write_discovery_json(path, DISCOVERY)
        payload = json.loads(path.read_text())
        assert payload[0]["reference_id"] == 0

    def test_empty_results(self, tmp_path):
        path = tmp_path / "none.csv"
        assert write_discovery_csv(path, []) == 0
        assert read_discovery_csv(path) == []


class TestCollectionSnapshots:
    def test_round_trip(self, tmp_path):
        from repro.core.records import SetCollection
        from repro.io import load_collection, save_collection

        original = SetCollection.from_strings(
            [["77 Mass Ave Boston MA"], ["5th St Seattle WA", "Chicago IL"]]
        )
        path = tmp_path / "snapshot.json"
        save_collection(path, original)
        loaded = load_collection(path)
        assert len(loaded) == len(original)
        for a, b in zip(loaded, original):
            assert [e.text for e in a.elements] == [e.text for e in b.elements]
            assert [e.index_tokens for e in a.elements] == [
                e.index_tokens for e in b.elements
            ]

    def test_round_trip_edit_kind(self, tmp_path):
        from repro.core.records import SetCollection
        from repro.io import load_collection, save_collection
        from repro.sim.functions import SimilarityKind

        original = SetCollection.from_strings(
            [["silkmoth"], ["matching"]], kind=SimilarityKind.EDS, q=3
        )
        path = tmp_path / "snapshot.json"
        save_collection(path, original)
        loaded = load_collection(path)
        assert loaded.tokenizer.kind is SimilarityKind.EDS
        assert loaded.tokenizer.q == 3

    def test_rejects_foreign_json(self, tmp_path):
        from repro.io import load_collection

        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ValueError, match="not a silkmoth-collection"):
            load_collection(path)

    def test_rejects_future_version(self, tmp_path):
        from repro.io import load_collection

        path = tmp_path / "future.json"
        path.write_text(
            '{"format": "silkmoth-collection", "version": 99, '
            '"similarity": "jaccard", "q": 1, "sets": []}'
        )
        with pytest.raises(ValueError, match="unsupported snapshot version"):
            load_collection(path)

    def test_search_results_identical_after_reload(self, tmp_path):
        from repro.core.config import SilkMothConfig
        from repro.core.engine import SilkMoth
        from repro.core.records import SetCollection
        from repro.io import load_collection, save_collection

        sets = [
            ["a b c", "d e"],
            ["a b c", "d f"],
            ["x y z"],
        ]
        original = SetCollection.from_strings(sets)
        path = tmp_path / "snap.json"
        save_collection(path, original)
        loaded = load_collection(path)
        config = SilkMothConfig(delta=0.5)
        first = SilkMoth(original, config).discover()
        second = SilkMoth(loaded, config).discover()
        assert [(r.reference_id, r.set_id) for r in first] == [
            (r.reference_id, r.set_id) for r in second
        ]


class TestSnapshotFaults:
    """Typed failure paths: corrupt, truncated and skewed snapshots.

    The VDBMS bug study's "incomplete persistence" class in test form:
    whatever a crashed writer or bit-rotting disk leaves behind, loads
    must fail with a *typed* snapshot error (never a raw ``KeyError``
    or ``JSONDecodeError``), and the corruption helpers used by the
    chaos suites must be deterministic.
    """

    def _snapshot(self, tmp_path):
        from repro.core.records import SetCollection
        from repro.io import save_collection

        path = tmp_path / "snap.json"
        save_collection(
            path, SetCollection.from_strings([["a b", "c"], ["d e"]])
        )
        return path

    def test_truncated_snapshot_is_a_typed_error(self, tmp_path):
        from repro.io import SnapshotFormatError, load_collection
        from repro.io.persistence import truncate_snapshot

        path = self._snapshot(tmp_path)
        original = path.stat().st_size
        kept = truncate_snapshot(path, keep_fraction=0.5)
        assert 0 < kept < original
        assert path.stat().st_size == kept
        with pytest.raises(SnapshotFormatError):
            load_collection(path)

    def test_truncation_to_nothing_is_a_typed_error(self, tmp_path):
        from repro.io import SnapshotFormatError, load_collection
        from repro.io.persistence import truncate_snapshot

        path = self._snapshot(tmp_path)
        assert truncate_snapshot(path, keep_fraction=0.0) == 0
        with pytest.raises(SnapshotFormatError):
            load_collection(path)

    def test_bitflip_at_structural_byte_is_a_typed_error(self, tmp_path):
        from repro.io import SnapshotFormatError, load_collection
        from repro.io.persistence import bitflip_snapshot

        path = self._snapshot(tmp_path)
        # Byte 0 is the opening brace; flipping a bit there guarantees
        # the JSON layer (not the content) is what breaks.
        assert bitflip_snapshot(path, offset=0) == 0
        with pytest.raises(SnapshotFormatError):
            load_collection(path)

    def test_seeded_bitflip_is_deterministic(self, tmp_path):
        from repro.io.persistence import bitflip_snapshot

        first = self._snapshot(tmp_path)
        offset_a = bitflip_snapshot(first, seed=42)
        # Re-create a pristine copy and flip with the same seed: the
        # chosen offset must be identical (the chaos log's seed is all
        # that is needed to replay a corruption).
        again = tmp_path / "again"
        again.mkdir()
        pristine = self._snapshot(again)
        offset_b = bitflip_snapshot(pristine, seed=42)
        assert offset_a == offset_b

    def test_snapshot_errors_subclass_value_error(self):
        from repro.io import (
            SnapshotError,
            SnapshotFormatError,
            SnapshotVersionError,
        )

        assert issubclass(SnapshotError, ValueError)
        assert issubclass(SnapshotFormatError, SnapshotError)
        assert issubclass(SnapshotVersionError, SnapshotError)

    def test_version_skew_is_a_typed_error(self, tmp_path):
        from repro.io import SnapshotVersionError, load_collection

        path = tmp_path / "future.json"
        path.write_text(
            '{"format": "silkmoth-collection", "version": 99, '
            '"similarity": "jaccard", "q": 1, "sets": []}'
        )
        with pytest.raises(SnapshotVersionError):
            load_collection(path)

    def test_foreign_json_is_a_typed_error(self, tmp_path):
        from repro.io import SnapshotFormatError, load_collection

        path = tmp_path / "foreign.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(SnapshotFormatError):
            load_collection(path)

    def test_cluster_manifest_missing_fields_is_a_typed_error(
        self, tmp_path
    ):
        from repro.io import SnapshotFormatError
        from repro.io.persistence import load_cluster_manifest

        path = tmp_path / "manifest.json"
        path.write_text(
            '{"format": "silkmoth-cluster", "version": 1, "shards": []}'
        )
        with pytest.raises(SnapshotFormatError):
            load_cluster_manifest(path)

    def test_corrupted_shard_structure_is_a_typed_error(self, tmp_path):
        from repro.io import SnapshotFormatError, load_collection

        path = tmp_path / "bad-sets.json"
        path.write_text(
            '{"format": "silkmoth-collection", "version": 1, '
            '"similarity": "jaccard", "q": 1, "sets": [42]}'
        )
        with pytest.raises(SnapshotFormatError):
            load_collection(path)


class TestDurableWrites:
    """The atomic-write primitive under failure: no torn destinations.

    ``atomic_write_text`` is the single funnel every snapshot, manifest
    and export goes through, so its guarantees -- an existing good file
    is never destroyed, a failed write leaves no temp litter, fsync
    policy resolves predictably -- are what every other durability
    claim in the repo rests on.
    """

    def test_resolve_fsync_argument_beats_environment(self, monkeypatch):
        from repro.settings import resolve

        monkeypatch.setenv("SILKMOTH_FSYNC", "0")
        assert resolve("SILKMOTH_FSYNC", True) is True
        monkeypatch.setenv("SILKMOTH_FSYNC", "1")
        assert resolve("SILKMOTH_FSYNC", False) is False

    def test_resolve_fsync_defaults_on(self, monkeypatch):
        from repro.settings import resolve

        monkeypatch.delenv("SILKMOTH_FSYNC", raising=False)
        assert resolve("SILKMOTH_FSYNC") is True
        # Unrecognised values keep the safe default too.
        monkeypatch.setenv("SILKMOTH_FSYNC", "definitely")
        assert resolve("SILKMOTH_FSYNC") is True

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", "", " No "])
    def test_resolve_fsync_off_switches(self, monkeypatch, value):
        from repro.settings import resolve

        monkeypatch.setenv("SILKMOTH_FSYNC", value)
        assert resolve("SILKMOTH_FSYNC") is False

    def test_write_leaves_no_temp_file(self, tmp_path):
        from repro.io.persistence import atomic_write_text

        path = tmp_path / "out.json"
        atomic_write_text(path, "payload", fsync=False)
        assert path.read_text() == "payload"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_replace_preserves_the_old_file(
        self, tmp_path, monkeypatch
    ):
        import os as os_module

        from repro.io.persistence import atomic_write_text

        path = tmp_path / "out.json"
        atomic_write_text(path, "good", fsync=False)

        def refuse(*_args, **_kwargs):
            raise OSError("disk pulled")

        monkeypatch.setattr(os_module, "replace", refuse)
        with pytest.raises(OSError, match="disk pulled"):
            atomic_write_text(path, "half-written", fsync=False)
        monkeypatch.undo()
        # The crash window hit between temp write and rename: the old
        # bytes survive intact and the temp file was cleaned up.
        assert path.read_text() == "good"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_fsync_preserves_the_old_file(self, tmp_path, monkeypatch):
        import os as os_module

        from repro.io.persistence import atomic_write_text

        path = tmp_path / "out.json"
        atomic_write_text(path, "good", fsync=False)

        def refuse(_fd):
            raise OSError("fsync refused")

        monkeypatch.setattr(os_module, "fsync", refuse)
        with pytest.raises(OSError, match="fsync refused"):
            atomic_write_text(path, "unsynced", fsync=True)
        monkeypatch.undo()
        # fsync failed *before* the rename, so the data that could not
        # be made durable never took the destination's name.
        assert path.read_text() == "good"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_fsync_directory_survives_unopenable_paths(self, tmp_path):
        from repro.io.persistence import fsync_directory

        # Best-effort by contract: a missing directory is a no-op, not
        # an error (some filesystems refuse directory descriptors).
        fsync_directory(tmp_path / "nowhere")


class TestDocumentChecksums:
    """Whole-document checksums: silent corruption becomes a typed error.

    Versions 2 (service) and 3 (shard) snapshots and the cluster
    manifest embed a blake2b-8 digest of their own canonical JSON.  A
    file that still *parses* after bit rot -- the case structural
    validation cannot catch -- must fail with
    :class:`SnapshotCorruptionError`, while checksum-less documents
    from older writers keep loading.
    """

    def _corrupt_text_field(self, path, old, new):
        """Flip payload content while keeping the JSON well-formed."""
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))

    def test_service_snapshot_corruption_is_detected(self, tmp_path):
        from repro.core.records import SetCollection
        from repro.io import load_service_snapshot
        from repro.io.persistence import (
            SnapshotCorruptionError,
            save_service_snapshot,
        )

        path = tmp_path / "service.json"
        collection = SetCollection.from_strings([["alpha beta", "gamma"]])
        save_service_snapshot(path, collection, {"generation": 7})
        self._corrupt_text_field(path, "alpha beta", "alpha rot")
        with pytest.raises(SnapshotCorruptionError, match="checksum mismatch"):
            load_service_snapshot(path)

    def test_metadata_corruption_is_detected(self, tmp_path):
        from repro.core.records import SetCollection
        from repro.io import load_service_snapshot
        from repro.io.persistence import (
            SnapshotCorruptionError,
            save_service_snapshot,
        )

        path = tmp_path / "service.json"
        save_service_snapshot(
            path,
            SetCollection.from_strings([["alpha"]]),
            {"generation": 7},
        )
        # Content corruption outside the sets -- a flipped counter in
        # the metadata -- is just as detectable.
        self._corrupt_text_field(path, '"generation": 7', '"generation": 8')
        with pytest.raises(SnapshotCorruptionError):
            load_service_snapshot(path)

    def test_shard_snapshot_corruption_is_detected(self, tmp_path):
        from repro.io.persistence import (
            SnapshotCorruptionError,
            load_shard_snapshot,
            save_shard_snapshot,
        )
        from repro.sim.functions import SimilarityKind

        path = tmp_path / "shard.json"
        save_shard_snapshot(
            path,
            SimilarityKind.JACCARD,
            1,
            [["alpha beta"], ["gamma"]],
            [],
            {"shard": 0, "global_ids": [0, 1]},
        )
        self._corrupt_text_field(path, '"global_ids": [0, 1]', '"global_ids": [0, 2]')
        with pytest.raises(SnapshotCorruptionError):
            load_shard_snapshot(path)

    def test_cluster_manifest_corruption_is_detected(self, tmp_path):
        from repro.io.persistence import (
            SnapshotCorruptionError,
            load_cluster_manifest,
            save_cluster_manifest,
        )
        from repro.sim.functions import SimilarityKind

        path = tmp_path / "cluster.json"
        save_cluster_manifest(
            path,
            SimilarityKind.JACCARD,
            1,
            ["shard-0.json"],
            {"generation": 3},
        )
        self._corrupt_text_field(path, "shard-0.json", "shard-9.json")
        with pytest.raises(SnapshotCorruptionError):
            load_cluster_manifest(path)

    def test_mistyped_checksum_is_a_format_error(self, tmp_path):
        from repro.core.records import SetCollection
        from repro.io import SnapshotFormatError, load_service_snapshot
        from repro.io.persistence import save_service_snapshot

        path = tmp_path / "service.json"
        save_service_snapshot(path, SetCollection.from_strings([["a"]]), {})
        payload = json.loads(path.read_text())
        payload["checksum"] = 12345
        path.write_text(json.dumps(payload))
        with pytest.raises(SnapshotFormatError, match="checksum"):
            load_service_snapshot(path)

    def test_checksumless_legacy_snapshot_still_loads(self, tmp_path):
        from repro.core.records import SetCollection
        from repro.io import load_service_snapshot
        from repro.io.persistence import save_service_snapshot

        path = tmp_path / "legacy.json"
        save_service_snapshot(
            path, SetCollection.from_strings([["alpha", "beta gamma"]]), {}
        )
        payload = json.loads(path.read_text())
        del payload["checksum"]
        path.write_text(json.dumps(payload))
        collection, _ = load_service_snapshot(path)
        assert len(collection) == 1

    def test_checksum_ignores_key_order(self):
        from repro.io.persistence import document_checksum

        forward = {"a": 1, "b": [2, 3], "checksum": "ignored"}
        backward = {"b": [2, 3], "a": 1}
        assert document_checksum(forward) == document_checksum(backward)

    def test_version_one_snapshots_carry_no_checksum(self, tmp_path):
        from repro.core.records import SetCollection
        from repro.io import load_collection, save_collection

        path = tmp_path / "v1.json"
        save_collection(path, SetCollection.from_strings([["a b"]]))
        # The v1 writer predates checksums and stays byte-compatible.
        assert "checksum" not in json.loads(path.read_text())
        assert len(load_collection(path)) == 1
