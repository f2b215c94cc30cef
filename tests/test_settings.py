"""The settings table (:mod:`repro.settings`) and its one parse policy.

Every ``SILKMOTH_*`` variable is declared once and resolved by one
function, so one table-driven suite covers them all: unset and
whitespace-only values give the default, malformed and out-of-range
values raise a ``ValueError`` naming the variable, and an explicit
argument beats the environment.  The CLI half checks that a malformed
variable surfaces as the CLI's one-line ``error:`` (exit 2) instead of
a traceback, and that ``--help`` still works.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.settings import SETTINGS, Setting, help_default, resolve, resolve_all

SRC = Path(__file__).resolve().parent.parent / "src"

#: One value per kind that no setting of that kind accepts (flags and
#: paths accept every non-empty string).
MALFORMED = {
    "int": "abc",
    "float": "abc",
    "choice": "carrier-pigeon",
    "spec": "wal.append.after_write:abc",
}

PARSED_SETTINGS = sorted(
    name for name, setting in SETTINGS.items() if setting.kind in MALFORMED
)


def _two_valid(setting: Setting):
    """Two distinct valid raw values for *setting*, with their parses."""
    if setting.kind == "int":
        low = int(setting.low or 0)
        return [(str(low + 1), low + 1), (str(low + 2), low + 2)]
    if setting.kind == "float":
        if setting.high is not None:
            return [("0.25", 0.25), ("0.5", 0.5)]
        return [("1.5", 1.5), ("2.5", 2.5)]
    if setting.kind == "flag":
        return [("0", False), ("yes", True)]
    if setting.kind == "choice":
        return [(value, value) for value in setting.choices[-2:]]
    if setting.kind == "path":
        return [("/srv/a", Path("/srv/a")), ("/srv/b", Path("/srv/b"))]
    return [("wal.append:2", ("wal.append", 2)), ("wal.rotate", ("wal.rotate", 1))]


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    for name in SETTINGS:
        monkeypatch.delenv(name, raising=False)


def test_table_declares_the_sixteen_variables():
    """The names src/ reads, each with a doc line and a known kind."""
    assert len(SETTINGS) == 16
    for name, setting in SETTINGS.items():
        assert name == setting.name and name.startswith("SILKMOTH_")
        assert setting.doc
        assert setting.kind in ("int", "float", "flag", "choice", "path", "spec")


def test_defaults_match_the_documented_values():
    """The defaults the benchmark's hermetic child runs with."""
    assert resolve_all() == {
        "SILKMOTH_SHARDS": 4,
        "SILKMOTH_REPLICAS": 1,
        "SILKMOTH_SHARD_DEADLINE": 0.0,
        "SILKMOTH_FAILOVER_BACKOFF": 0.05,
        "SILKMOTH_CLUSTER_TRANSPORT": "inline",
        "SILKMOTH_WAL_DIR": None,
        "SILKMOTH_WAL_SEGMENT_BYTES": 1 << 20,
        "SILKMOTH_FSYNC": True,
        "SILKMOTH_SIM_CACHE": 65536,
        "SILKMOTH_SKETCH_ALPHA": 0.01,
        "SILKMOTH_SLOWLOG_MS": 100.0,
        "SILKMOTH_SLOWLOG_CAPACITY": 256,
        "SILKMOTH_SLOWLOG_EXPORT": None,
        "SILKMOTH_TRACE": False,
        "SILKMOTH_TRACE_EXPORT": None,
        "SILKMOTH_CRASH_AT": None,
    }


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_unset_and_blank_give_the_default(monkeypatch, name):
    setting = SETTINGS[name]
    assert resolve(name) == setting.default
    monkeypatch.setenv(name, "  \t")
    assert resolve(name) == (False if setting.kind == "flag" else setting.default)


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_valid_values_parse(monkeypatch, name):
    for raw, parsed in _two_valid(SETTINGS[name]):
        monkeypatch.setenv(name, f" {raw} ")
        assert resolve(name) == parsed
        assert resolve(name, raw) == parsed


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_explicit_argument_beats_environment(monkeypatch, name):
    (env_raw, _), (explicit_raw, explicit) = _two_valid(SETTINGS[name])
    monkeypatch.setenv(name, env_raw)
    assert resolve(name, explicit_raw) == explicit
    if SETTINGS[name].kind != "spec":  # specs only ever come as text
        assert resolve(name, explicit) == explicit


@pytest.mark.parametrize("name", PARSED_SETTINGS)
def test_malformed_value_raises_naming_the_variable(monkeypatch, name):
    bad = MALFORMED[SETTINGS[name].kind]
    monkeypatch.setenv(name, bad)
    with pytest.raises(ValueError, match=name) as excinfo:
        resolve(name)
    assert repr(bad) in str(excinfo.value)
    monkeypatch.delenv(name)
    with pytest.raises(ValueError, match=name):
        resolve(name, bad)


@pytest.mark.parametrize(
    "name",
    sorted(n for n, s in SETTINGS.items() if s.low is not None or s.high is not None),
)
def test_values_past_each_range_bound_raise(monkeypatch, name):
    setting = SETTINGS[name]
    step = 0 if setting.exclusive else 1
    past = []
    if setting.low is not None:
        past.append(setting.low - step)
    if setting.high is not None:
        past.append(setting.high + step)
    for value in past:
        value = int(value) if setting.kind == "int" else float(value)
        monkeypatch.setenv(name, str(value))
        with pytest.raises(ValueError, match=name):
            resolve(name)
        with pytest.raises(ValueError, match=name):
            resolve(name, value)


@pytest.mark.parametrize(
    "name", sorted(n for n, s in SETTINGS.items() if s.kind == "float")
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_floats_must_be_finite(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError, match=name):
        resolve(name)
    monkeypatch.delenv(name)
    with pytest.raises(ValueError, match=name):
        resolve(name, float(value))


@pytest.mark.parametrize(
    "value, expected",
    [("", False), ("0", False), ("False", False), (" NO ", False),
     ("off", False), ("1", True), ("on", True), ("anything", True)],
)
def test_flag_words(monkeypatch, value, expected):
    monkeypatch.setenv("SILKMOTH_TRACE", value)
    assert resolve("SILKMOTH_TRACE") is expected


def test_explicit_false_path_ignores_the_environment(monkeypatch):
    monkeypatch.setenv("SILKMOTH_WAL_DIR", "/srv/wal")
    assert resolve("SILKMOTH_WAL_DIR", False) is None
    assert resolve("SILKMOTH_WAL_DIR") == Path("/srv/wal")


def test_integers_reject_fractions():
    with pytest.raises(ValueError, match="SILKMOTH_SHARDS"):
        resolve("SILKMOTH_SHARDS", 2.5)
    with pytest.raises(ValueError, match="SILKMOTH_SHARDS"):
        resolve("SILKMOTH_SHARDS", "2.5")


def test_help_default_reads_the_declaration():
    assert help_default("SILKMOTH_SHARDS") == "SILKMOTH_SHARDS, then 4"
    assert help_default("SILKMOTH_FAILOVER_BACKOFF").endswith("then 0.05")
    assert help_default("SILKMOTH_FSYNC").endswith("then on")
    assert help_default("SILKMOTH_WAL_DIR").endswith("then unset")


def _silkmoth(args, env_overrides, tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SILKMOTH_")}
    env.update(env_overrides, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=env,
    )


@pytest.fixture
def smoke(tmp_path):
    path = tmp_path / "smoke.txt"
    path.write_text("a b c\na b d\nx y z\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("name", PARSED_SETTINGS)
def test_cli_reports_a_malformed_variable_as_one_error_line(
    name, smoke, tmp_path
):
    """Exit 2 with one ``error:`` line naming the variable, never a
    traceback -- even for settings ``discover`` itself never reads."""
    completed = _silkmoth(
        ["discover", str(smoke)], {name: MALFORMED[SETTINGS[name].kind]}, tmp_path
    )
    assert completed.returncode == 2, completed.stderr
    lines = completed.stderr.strip().splitlines()
    assert len(lines) == 1, completed.stderr
    assert lines[0].startswith("error: ") and name in lines[0]


@pytest.mark.parametrize(
    "name", sorted(n for n in SETTINGS if n not in PARSED_SETTINGS)
)
def test_cli_accepts_any_flag_or_path_value(name, smoke, tmp_path):
    """Flags and paths have no malformed value: any text is accepted."""
    completed = _silkmoth(["discover", str(smoke)], {name: "anything"}, tmp_path)
    assert completed.returncode == 0, completed.stderr
    assert "error" not in completed.stderr


def test_cli_help_works_with_every_variable_malformed(tmp_path):
    malformed = {name: MALFORMED[SETTINGS[name].kind] for name in PARSED_SETTINGS}
    completed = _silkmoth(["--help"], malformed, tmp_path)
    assert completed.returncode == 0, completed.stderr
    assert "usage:" in completed.stdout
