"""CLI behaviour: argument plumbing, output formats, error handling.

The CLI is exercised in-process through :func:`repro.cli.main` (fast,
and the exit codes / stdio contract is identical to the console
script).
"""

import json

import pytest

from repro.cli import build_parser, load_sets, main
from repro.io.writers import read_discovery_csv, read_search_json


@pytest.fixture
def titles(tmp_path):
    path = tmp_path / "titles.txt"
    path.write_text(
        "efficient related set discovery\n"
        "efficient related set discovery methods\n"
        "an unrelated publication title\n"
    )
    return path


@pytest.fixture
def jsonl(tmp_path):
    path = tmp_path / "sets.jsonl"
    rows = [
        ["77 Mass Ave Boston MA", "5th St Seattle WA"],
        ["77 Massachusetts Avenue Boston MA", "Fifth Street Seattle WA"],
        ["One Kendall Square Cambridge MA"],
    ]
    path.write_text("\n".join(json.dumps(row) for row in rows) + "\n")
    return path


@pytest.fixture
def table(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(
        "city,state\n"
        "Boston,MA\n"
        "Seattle,WA\n"
        "Chicago,IL\n"
        "Cambridge,MA\n"
        "Somerville,MA\n"
    )
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_discover_defaults(self, titles):
        args = build_parser().parse_args(["discover", str(titles)])
        assert args.delta == 0.7
        assert args.scheme == "dichotomy"
        assert args.metric == "similarity"

    def test_search_requires_reference(self, titles):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", str(titles)])

    @pytest.mark.parametrize(
        "argv",
        [
            ["discover"],
            ["search", "--reference", "0"],
            ["explain", "--reference", "0"],
            ["selfcheck"],
            ["stats"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_there_is_no_backend_option(self, titles, argv, capsys):
        """One compute backend: no subcommand takes ``--backend`` any more."""
        command = [argv[0], str(titles), *argv[1:]]
        build_parser().parse_args(command)
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["--backend", "numpy"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


class TestLoadSets:
    def test_text(self, titles):
        sets, labels = load_sets(str(titles), "text")
        assert len(sets) == 3
        assert labels[0] == "line1"

    def test_jsonl(self, jsonl):
        sets, labels = load_sets(str(jsonl), "jsonl")
        assert len(sets) == 3
        assert sets[2] == ["One Kendall Square Cambridge MA"]

    def test_csv_columns(self, table):
        sets, labels = load_sets(str(table), "csv-columns")
        assert labels == ["city", "state"]

    def test_csv_schema(self, table):
        sets, labels = load_sets(str(table), "csv-schema")
        assert len(sets) == 1
        assert labels == ["table"]

    def test_unknown_format(self, titles):
        with pytest.raises(ValueError):
            load_sets(str(titles), "parquet")


class TestDiscover:
    def test_stdout_tsv(self, titles, capsys):
        code = main(
            ["discover", str(titles), "--delta", "0.5", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "reference\tset\tscore\trelatedness"
        # The two near-duplicate titles must be reported as related.
        assert any("line1\tline2" in line for line in lines[1:])

    def test_csv_output(self, titles, tmp_path):
        out = tmp_path / "pairs.csv"
        code = main(
            [
                "discover",
                str(titles),
                "--delta",
                "0.5",
                "--quiet",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        results = read_discovery_csv(out)
        assert len(results) >= 1

    def test_bad_output_extension(self, titles, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "discover",
                    str(titles),
                    "--quiet",
                    "--output",
                    str(tmp_path / "pairs.parquet"),
                ]
            )

    def test_empty_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["discover", str(empty), "--quiet"]) == 1

    def test_edit_similarity_flags(self, titles, capsys):
        code = main(
            [
                "discover",
                str(titles),
                "--sim",
                "eds",
                "--alpha",
                "0.8",
                "--delta",
                "0.6",
                "--quiet",
            ]
        )
        assert code == 0

    def test_summary_line_on_stderr(self, titles, capsys):
        main(["discover", str(titles), "--delta", "0.5"])
        err = capsys.readouterr().err
        assert "related pair(s)" in err


class TestSearch:
    def test_search_finds_duplicate(self, jsonl, capsys):
        code = main(
            [
                "search",
                str(jsonl),
                "--format",
                "jsonl",
                "--reference",
                "0",
                "--delta",
                "0.2",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "set1" in out

    def test_reference_out_of_range(self, jsonl, capsys):
        code = main(
            ["search", str(jsonl), "--reference", "9", "--quiet"]
        )
        assert code == 1

    def test_containment_metric(self, table, capsys):
        code = main(
            [
                "search",
                str(table),
                "--format",
                "csv-columns",
                "--reference",
                "0",
                "--metric",
                "containment",
                "--delta",
                "0.4",
                "--quiet",
            ]
        )
        assert code == 0

    def test_top_k_json_output(self, jsonl, tmp_path):
        out = tmp_path / "top.json"
        code = main(
            [
                "search",
                str(jsonl),
                "--reference",
                "0",
                "--top-k",
                "1",
                "--delta",
                "0.9",
                "--quiet",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        results = read_search_json(out)
        assert len(results) <= 1


class TestStats:
    def test_profile(self, jsonl, capsys):
        assert main(["stats", str(jsonl), "--format", "jsonl"]) == 0
        out = capsys.readouterr().out
        assert "sets:" in out
        assert "elements per set:" in out

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.txt")]) == 2
        assert "error:" in capsys.readouterr().err


class TestExplain:
    def test_explain_pair(self, jsonl, capsys):
        code = main(
            [
                "explain",
                str(jsonl),
                "--format",
                "jsonl",
                "--reference",
                "0",
                "--candidate",
                "1",
                "--delta",
                "0.2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reference set 0 vs candidate set 1" in out
        assert "verdict" in out

    def test_explain_index_validation(self, jsonl, capsys):
        code = main(
            [
                "explain",
                str(jsonl),
                "--format",
                "jsonl",
                "--reference",
                "0",
                "--candidate",
                "99",
            ]
        )
        assert code == 1
        assert "out of range" in capsys.readouterr().err


class TestSelfcheck:
    def test_passes_on_clean_input(self, titles, capsys):
        code = main(
            ["selfcheck", str(titles), "--delta", "0.5", "--sample", "3"]
        )
        assert code == 0
        assert "selfcheck passed" in capsys.readouterr().out

    def test_sample_zero_checks_all(self, jsonl, capsys):
        code = main(
            [
                "selfcheck",
                str(jsonl),
                "--format",
                "jsonl",
                "--delta",
                "0.2",
                "--sample",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 reference(s)" in out

    def test_edit_similarity_selfcheck(self, titles, capsys):
        code = main(
            [
                "selfcheck",
                str(titles),
                "--sim",
                "eds",
                "--alpha",
                "0.8",
                "--delta",
                "0.6",
            ]
        )
        assert code == 0


class TestConsoleEntryPoint:
    def test_module_invocation(self, titles):
        import subprocess
        import sys

        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "stats",
                str(titles),
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "sets:" in completed.stdout


class TestServiceCommands:
    def _snapshot(self, titles, tmp_path, extra=()):
        path = tmp_path / "svc.json"
        code = main(
            ["service", "snapshot", str(titles), "--delta", "0.5", "--quiet",
             "--output", str(path), *extra]
        )
        assert code == 0
        return path

    def test_snapshot_and_info(self, titles, tmp_path, capsys):
        path = self._snapshot(titles, tmp_path, extra=["--remove", "2"])
        assert main(["service", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "live sets:    2" in out
        assert "tombstones:   1 [2]" in out

    def test_query_serves_batch_with_cache(self, titles, tmp_path, capsys):
        path = self._snapshot(titles, tmp_path)
        code = main(
            ["service", "query", str(path), "--references", str(titles),
             "--delta", "0.5", "--repeat", "2"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("reference\tset\tscore\trelatedness")
        assert "cache hit rate" in captured.err

    def test_query_rejects_nonpositive_repeat(self, titles, tmp_path, capsys):
        path = self._snapshot(titles, tmp_path)
        code = main(
            ["service", "query", str(path), "--references", str(titles),
             "--repeat", "0"]
        )
        assert code == 1
        assert "--repeat must be >= 1" in capsys.readouterr().err

    def test_query_rejects_mismatched_similarity(self, titles, tmp_path, capsys):
        path = self._snapshot(titles, tmp_path)
        code = main(
            ["service", "query", str(path), "--references", str(titles),
             "--sim", "eds", "--alpha", "0.8"]
        )
        assert code == 2
        assert "tokenised for 'jaccard'" in capsys.readouterr().err

    def test_snapshot_rejects_bad_remove_id(self, titles, tmp_path, capsys):
        code = main(
            ["service", "snapshot", str(titles), "--remove", "99",
             "--output", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    def test_removed_set_never_served(self, titles, tmp_path, capsys):
        path = self._snapshot(titles, tmp_path, extra=["--remove", "0"])
        code = main(
            ["service", "query", str(path), "--references", str(titles),
             "--delta", "0.5", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert all(row[1] != "0" for row in rows)


class TestClusterCommands:
    def _manifest(self, titles, tmp_path, extra=()):
        path = tmp_path / "cluster.json"
        code = main(
            ["cluster", "shard", str(titles), "--shards", "2", "--delta",
             "0.5", "--quiet", "--output", str(path), *extra]
        )
        assert code == 0
        return path

    def test_shard_writes_manifest_and_shard_files(self, titles, tmp_path):
        path = self._manifest(titles, tmp_path)
        assert path.exists()
        assert (tmp_path / "cluster-shard0.json").exists()
        assert (tmp_path / "cluster-shard1.json").exists()

    def test_info_describes_cluster(self, titles, tmp_path, capsys):
        path = self._manifest(titles, tmp_path, extra=["--remove", "2"])
        assert main(["cluster", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "shards:       2" in out
        assert "live sets:    2" in out
        assert "cluster: 2 shard(s), transport inline\n" in out
        assert "shard 0:" in out and "shard 1:" in out

    def test_query_serves_batch_with_routing_stats(
        self, titles, tmp_path, capsys
    ):
        path = self._manifest(titles, tmp_path)
        code = main(
            ["cluster", "query", str(path), "--references", str(titles),
             "--delta", "0.5", "--repeat", "2"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("reference\tset\tscore\trelatedness")
        assert "cache hit rate" in captured.err
        assert "routed" in captured.err and "skipped" in captured.err

    def test_query_matches_single_node_service(
        self, titles, tmp_path, capsys
    ):
        cluster_manifest = self._manifest(titles, tmp_path)
        code = main(
            ["cluster", "query", str(cluster_manifest), "--references",
             str(titles), "--delta", "0.5", "--quiet"]
        )
        assert code == 0
        cluster_out = capsys.readouterr().out
        snapshot = tmp_path / "service.json"
        assert main(
            ["service", "snapshot", str(titles), "--delta", "0.5",
             "--quiet", "--output", str(snapshot)]
        ) == 0
        code = main(
            ["service", "query", str(snapshot), "--references", str(titles),
             "--delta", "0.5", "--quiet"]
        )
        assert code == 0
        assert capsys.readouterr().out == cluster_out

    def test_query_rejects_mismatched_similarity(self, titles, tmp_path, capsys):
        path = self._manifest(titles, tmp_path)
        code = main(
            ["cluster", "query", str(path), "--references", str(titles),
             "--sim", "eds", "--alpha", "0.8"]
        )
        assert code == 2
        assert "tokenised for 'jaccard'" in capsys.readouterr().err

    def test_shard_rejects_bad_remove_id(self, titles, tmp_path, capsys):
        code = main(
            ["cluster", "shard", str(titles), "--remove", "99",
             "--output", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert "out of range" in capsys.readouterr().err
