"""Documentation gates: coverage, cross-references, and freshness.

Documentation only stays true if something fails when it drifts, so
tier-1 enforces:

* 100% docstring coverage over ``src/repro`` (``tools/check_docstrings.py``,
  an `interrogate` equivalent with no dependencies);
* every relative link and anchor in README.md and ``docs/`` resolves
  (``tools/check_links.py``);
* ``docs/parameters.md`` documents every ``SilkMothConfig`` field and
  every signature scheme, so adding a knob without documenting it
  fails here;
* the ``SILKMOTH_*`` variables ``docs/parameters.md`` documents are
  exactly the ones ``src/`` reads, so neither side can drift.
"""

from __future__ import annotations

import ast
import dataclasses
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"
ENV_NAME = re.compile(r"SILKMOTH_[A-Z0-9_]+")


def _run_tool(name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / name)],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_docs_suite_exists():
    """The documentation suite ships with the repository."""
    for name in ("paper-map.md", "architecture.md", "parameters.md"):
        assert (DOCS / name).is_file(), f"docs/{name} is missing"


def test_docstring_coverage_gate():
    """Every public module/class/function in src/repro is documented."""
    completed = _run_tool("check_docstrings.py")
    assert completed.returncode == 0, (
        completed.stdout + "\n" + completed.stderr
    )
    assert "100.0%" in completed.stdout


def test_markdown_links_resolve():
    """No broken relative links or anchors in README.md / docs/."""
    completed = _run_tool("check_links.py")
    assert completed.returncode == 0, (
        completed.stdout + "\n" + completed.stderr
    )


def test_parameters_doc_covers_every_config_field():
    """docs/parameters.md names every SilkMothConfig field."""
    from repro.core.config import SilkMothConfig

    text = (DOCS / "parameters.md").read_text()
    for field in dataclasses.fields(SilkMothConfig):
        assert f"`{field.name}`" in text, (
            f"SilkMothConfig.{field.name} is undocumented in docs/parameters.md"
        )


def test_parameters_doc_covers_every_scheme():
    """docs/parameters.md names every signature scheme (and 'auto')."""
    from repro.signatures import SCHEME_NAMES

    text = (DOCS / "parameters.md").read_text()
    for scheme in SCHEME_NAMES + ("auto",):
        assert f"`{scheme}`" in text, (
            f"scheme {scheme!r} is undocumented in docs/parameters.md"
        )


def _env_vars_read_by_src(src: Path = REPO_ROOT / "src") -> set:
    """Every ``SILKMOTH_*`` name a string constant under *src* spells out whole.

    Each variable is read through a constant holding exactly its name
    (``WAL_DIR_ENV_VAR = "SILKMOTH_WAL_DIR"``); mentions inside
    docstrings, comments and help texts do not count.
    """
    names = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and ENV_NAME.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def test_env_scan_counts_reads_not_mentions(tmp_path):
    """The drift check's scanner: a constant counts, prose does not."""
    (tmp_path / "knob.py").write_text(
        '"""Tuned by ``SILKMOTH_DOC_ONLY``."""\n'
        "# SILKMOTH_COMMENT_ONLY\n"
        'KNOB_ENV = "SILKMOTH_KNOB"\n'
        'HELP = "default: SILKMOTH_KNOB, then 3"\n',
        encoding="utf-8",
    )
    assert _env_vars_read_by_src(tmp_path) == {"SILKMOTH_KNOB"}
    read = _env_vars_read_by_src()
    assert "SILKMOTH_WAL_DIR" in read
    assert "SILKMOTH_CHAOS_LOG" not in read  # a docstring mention only


def test_parameters_doc_names_exactly_the_env_vars_src_reads():
    """No documented variable nothing reads, no read variable undocumented."""
    documented = set(ENV_NAME.findall((DOCS / "parameters.md").read_text()))
    read = _env_vars_read_by_src()
    assert not documented - read, (
        f"docs/parameters.md documents variables src/ never reads: "
        f"{sorted(documented - read)}"
    )
    assert not read - documented, (
        f"src/ reads variables docs/parameters.md does not name: "
        f"{sorted(read - documented)}"
    )


def test_parameters_doc_states_the_q_constraint():
    """The constraint that motivated the planner stays documented."""
    text = (DOCS / "parameters.md").read_text()
    assert "q < alpha / (1 - alpha)" in text
    assert "full-scan fallback" in text


def test_readme_points_at_docs():
    """README links the documentation suite."""
    text = (REPO_ROOT / "README.md").read_text()
    for target in ("docs/architecture.md", "docs/parameters.md", "docs/paper-map.md"):
        assert target in text, f"README.md does not link {target}"
