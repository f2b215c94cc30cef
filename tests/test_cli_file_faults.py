"""Every file-taking subcommand fails on a damaged file with a typed error.

A corrupt snapshot, manifest or WAL checkpoint must end the command with
exit code 2 and one ``error: ...`` line naming what is wrong -- never a
traceback (in-process, an uncaught exception fails the test outright),
and never a success over damaged data.  Five faults, applied to the
file each command opens:

* ``truncated`` -- the tail of the file never reached disk;
* ``bitflip`` -- one structural byte flipped, so it no longer parses;
* ``no-similarity`` -- a well-formed document without its tokenizer kind;
* ``section-type`` -- the ``service`` / ``cluster`` section is not an
  object;
* ``stale-checksum`` -- content edited after writing, checksum untouched.

A manifest gets a sixth, ``bad-placement``: a placement entry that is
not a ``[shard, local]`` pair.  The ``trace`` and ``slowlog`` viewers
read JSONL exports: a line that is not a JSON object, lacks a key the
viewer needs or holds a value of the wrong type is an error naming the
file and the line.

The structural faults recompute the checksum, so what fires is the
reader's shape check rather than its corruption check.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.io.persistence import (
    bitflip_snapshot,
    document_checksum,
    truncate_snapshot,
)
from repro.settings import SETTINGS

DATA = "apple pie crust\napple pie\nbanana split\nbanana bread loaf\n"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in SETTINGS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("SILKMOTH_FSYNC", "0")


def _rewrite(path, edit, reseal: bool) -> None:
    """Apply *edit* to the JSON document at *path*; *reseal* refreshes
    its checksum so only the edit itself is wrong."""
    payload = json.loads(path.read_text())
    edit(payload)
    if reseal and "checksum" in payload:
        payload["checksum"] = document_checksum(payload)
    path.write_text(json.dumps(payload))


def _section(payload) -> str:
    return "cluster" if payload["format"] == "silkmoth-cluster" else "service"


def _edit_content(payload) -> None:
    if payload["format"] == "silkmoth-cluster":
        payload["cluster"]["generation"] += 1
    else:
        payload["sets"][0][0] = "edited"


FAULTS = {
    "truncated": lambda path: truncate_snapshot(path, keep_fraction=0.5),
    "bitflip": lambda path: bitflip_snapshot(path, offset=0),
    "no-similarity": lambda path: _rewrite(
        path, lambda payload: payload.pop("similarity"), reseal=True
    ),
    "section-type": lambda path: _rewrite(
        path,
        lambda payload: payload.__setitem__(_section(payload), [1]),
        reseal=True,
    ),
    "stale-checksum": lambda path: _rewrite(path, _edit_content, reseal=False),
    "bad-placement": lambda path: _rewrite(
        path,
        lambda payload: payload["cluster"].__setitem__("placement", [5]),
        reseal=True,
    ),
}

#: (argv, the file the fault is applied to).
COMMANDS = {
    "service-info": (["service", "info", "svc.json"], "svc.json"),
    "service-query": (
        ["service", "query", "svc.json", "--references", "data.txt"],
        "svc.json",
    ),
    "health-snapshot": (["health", "svc.json"], "svc.json"),
    "health-manifest": (["health", "clu.json"], "clu.json"),
    "cluster-info": (["cluster", "info", "clu.json"], "clu.json"),
    "cluster-query": (
        ["cluster", "query", "clu.json", "--references", "data.txt"],
        "clu.json",
    ),
    "wal-inspect": (["wal", "inspect", "wal"], "wal/checkpoint.json"),
    "wal-recover": (["wal", "recover", "wal"], "wal/checkpoint.json"),
}


@pytest.fixture
def files(tmp_path, monkeypatch, capsys):
    """A snapshot, a two-shard manifest and a WAL directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.txt").write_text(DATA)
    for argv in (
        ["service", "snapshot", "data.txt", "--output", "svc.json"],
        ["cluster", "shard", "data.txt", "--shards", "2", "--output",
         "clu.json"],
    ):
        assert main([*argv, "--quiet"]) == 0
    monkeypatch.setenv("SILKMOTH_WAL_DIR", "wal")
    assert main(
        ["service", "query", "svc.json", "--references", "data.txt",
         "--quiet"]
    ) == 0
    monkeypatch.delenv("SILKMOTH_WAL_DIR")
    capsys.readouterr()
    return tmp_path


CASES = [
    (command, fault)
    for command, (_, target) in sorted(COMMANDS.items())
    for fault in sorted(FAULTS)
    if fault != "bad-placement" or target == "clu.json"
]


@pytest.mark.parametrize(
    "command,fault", CASES, ids=[f"{c}-{f}" for c, f in CASES]
)
def test_a_damaged_file_is_a_typed_error(files, capsys, command, fault):
    argv, target = COMMANDS[command]
    FAULTS[fault](files / target)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    if command == "wal-inspect":
        assert "checkpoint.json" in captured.err


def test_an_undamaged_file_serves(files, capsys):
    """The control: every command succeeds on the files as written."""
    for argv, _ in COMMANDS.values():
        assert main(argv) == 0, argv


#: A span line the trace viewers can read, then lines they cannot.
SPAN = '{"trace_id": "t", "span_id": "s", "name": "n", "wall_seconds": 0.1}'

JSONL_FAULTS = {
    "slowlog-list-line": (
        "slowlog", '{"seconds": 0.1}\n[1, 2]\n',
        "line 2: not a JSON object",
    ),
    "slowlog-string-seconds": (
        "slowlog", '{"seconds": "slow"}\n',
        "line 1: 'seconds' is not int or float",
    ),
    "slowlog-bad-json": (
        "slowlog", '{"seconds": 0.1}\n{oops\n', "line 2: invalid JSON",
    ),
    "trace-no-span-id": (
        "trace", SPAN + '\n{"trace_id": "t", "name": "x"}\n',
        "line 2: missing 'span_id'",
    ),
    "trace-list-line": ("trace", "[1]\n", "line 1: not a JSON object"),
    "trace-list-span-id": (
        "trace", SPAN.replace('"s"', "[1]") + "\n",
        "line 1: 'span_id' is not str",
    ),
    "trace-list-attrs": (
        "trace", SPAN[:-1] + ', "attrs": [1]}\n',
        "line 1: 'attrs' is not dict",
    ),
    "trace-bad-json": ("trace", SPAN + "\n\n{oops\n", "line 3: invalid JSON"),
    "trace-string-wall": (
        "trace", SPAN.replace("0.1", '"x"') + "\n",
        "line 1: 'wall_seconds' is not int or float",
    ),
}


@pytest.mark.parametrize("case", sorted(JSONL_FAULTS))
@pytest.mark.parametrize("top", [[], ["--top", "2"]], ids=["all", "top"])
def test_a_malformed_jsonl_line_is_a_typed_error(tmp_path, capsys, case, top):
    """``trace`` and ``slowlog`` name the file and the bad line."""
    command, text, message = JSONL_FAULTS[case]
    path = tmp_path / "export.jsonl"
    path.write_text(text)
    assert main([command, str(path), *top]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: {message}")
    assert "Traceback" not in captured.err
    assert captured.out == ""
