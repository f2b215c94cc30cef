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
  exactly the ones :mod:`repro.settings` declares, with the declared
  defaults, and no other module reads one from the environment;
* the metric families ``docs/observability.md`` tabulates are exactly
  the ones the program registers.
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


_ENVIRON_NAMES = ("environ", "getenv")


def _touches_environ(node: ast.AST) -> bool:
    """Whether *node* is ``os.environ`` / ``os.getenv`` (or a bare name)."""
    if isinstance(node, ast.Attribute):
        return node.attr in _ENVIRON_NAMES
    return isinstance(node, ast.Name) and node.id in _ENVIRON_NAMES


def _environ_reads(tree: ast.Module) -> set:
    """``SILKMOTH_*`` names *tree* looks up in the environment directly.

    Catches ``os.environ.get(K)``, ``os.getenv(K)``, ``os.environ[K]``
    and ``K in os.environ``, where ``K`` is the literal name or a
    module-level constant holding it.  Passing the name to
    :func:`repro.settings.resolve`, or spelling it in prose, is not a
    read.
    """
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def key_name(key):
        if isinstance(key, ast.Name):
            return constants.get(key.id)
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return key.value
        return None

    keys = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if _touches_environ(func) or (
                isinstance(func, ast.Attribute) and _touches_environ(func.value)
            ):
                keys.append(node.args[0])
        elif isinstance(node, ast.Subscript) and _touches_environ(node.value):
            keys.append(node.slice)
        elif isinstance(node, ast.Compare) and any(
            _touches_environ(c) for c in node.comparators
        ):
            keys.append(node.left)
    return {
        name
        for name in map(key_name, keys)
        if name is not None and ENV_NAME.fullmatch(name)
    }


def _modules_reading_env(src: Path = REPO_ROOT / "src") -> dict:
    """Module path (relative to *src*) -> the ``SILKMOTH_*`` names it reads."""
    reads = {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _environ_reads(tree)
        if names:
            reads[path.relative_to(src).as_posix()] = names
    return reads


def test_env_scan_counts_reads_not_mentions(tmp_path):
    """The drift check's scanner: a lookup counts, prose does not."""
    (tmp_path / "knob.py").write_text(
        '"""Tuned by ``SILKMOTH_DOC_ONLY``."""\n'
        "import os\n"
        "from os import environ\n"
        "# os.environ.get('SILKMOTH_COMMENT_ONLY')\n"
        'KNOB_ENV = "SILKMOTH_KNOB"\n'
        'HELP = "default: SILKMOTH_HELP, then 3"\n'
        "a = os.environ.get(KNOB_ENV)\n"
        'b = os.getenv("SILKMOTH_GETENV", "1")\n'
        'c = os.environ["SILKMOTH_ITEM"]\n'
        'd = "SILKMOTH_MEMBER" in os.environ\n'
        'e = environ.get("SILKMOTH_BARE")\n'
        'f = resolve("SILKMOTH_RESOLVED")\n'
        'g = os.environ.get("HOME")\n',
        encoding="utf-8",
    )
    assert _modules_reading_env(tmp_path) == {
        "knob.py": {
            "SILKMOTH_KNOB",
            "SILKMOTH_GETENV",
            "SILKMOTH_ITEM",
            "SILKMOTH_MEMBER",
            "SILKMOTH_BARE",
        }
    }


def test_only_the_settings_module_reads_silkmoth_variables():
    """Every ``SILKMOTH_*`` read goes through :mod:`repro.settings`,
    and every name spelled out whole in ``src/`` is a declared one."""
    from repro.settings import SETTINGS

    reads = _modules_reading_env()
    reads.pop("repro/settings.py", None)
    assert not reads, f"read around repro.settings: {reads}"
    spelled = {
        node.value
        for path in (REPO_ROOT / "src").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and ENV_NAME.fullmatch(node.value)
    }
    assert spelled <= set(SETTINGS), sorted(spelled - set(SETTINGS))


def _documented_defaults() -> dict:
    """``SILKMOTH_*`` name -> Default cell of its docs/parameters.md row.

    Looks at every table with an ``Environment variable`` and a
    ``Default`` column.
    """
    rows = {}
    columns = None
    for line in (DOCS / "parameters.md").read_text().splitlines():
        if not line.startswith("|"):
            columns = None
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if columns is None:
            columns = cells
            continue
        if "Environment variable" not in columns or "Default" not in columns:
            continue
        names = ENV_NAME.findall(cells[columns.index("Environment variable")])
        for name in names:
            assert name not in rows, f"{name} has two rows in parameters.md"
            rows[name] = cells[columns.index("Default")].strip("`")
    return rows


def test_parameters_doc_names_exactly_the_declared_variables():
    """No documented variable undeclared, no declared variable undocumented."""
    from repro.settings import SETTINGS

    documented = set(ENV_NAME.findall((DOCS / "parameters.md").read_text()))
    assert documented == set(SETTINGS), (
        f"only documented: {sorted(documented - set(SETTINGS))}; "
        f"only declared: {sorted(set(SETTINGS) - documented)}"
    )


def test_parameters_doc_shows_each_declared_default():
    """Each variable's table row shows the default it is declared with."""
    from repro.settings import SETTINGS

    rows = _documented_defaults()
    assert set(rows) == set(SETTINGS)
    for name, shown in rows.items():
        assert shown == SETTINGS[name].shown_default, (
            f"docs/parameters.md shows {name} defaulting to {shown!r}, "
            f"declared {SETTINGS[name].shown_default!r}"
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


def _registered_families(monkeypatch) -> set:
    """Every counter and sketch family :mod:`repro.obs.instrument` and
    :mod:`repro.cluster.transport` register, by name, on fresh
    registries."""
    from repro.cluster import transport
    from repro.obs import instrument
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.sketch import SketchRegistry

    counters = instrument._Handles(MetricsRegistry()).registry
    sketches = instrument._SketchHandles(SketchRegistry()).registry
    monkeypatch.setattr(transport, "get_sketch_registry", lambda: sketches)
    transport._observe_collect_wait("inline", 0.0)
    return {
        family.name
        for registry in (counters, sketches)
        for family in registry.families()
    }


def _documented_families() -> list:
    """The family names of each table row of docs/observability.md
    whose first cell names one (a row may name two)."""
    rows = []
    for line in (DOCS / "observability.md").read_text().splitlines():
        if line.startswith("| `silkmoth_"):
            first = line.strip("|").split("|")[0]
            rows.append(re.findall(r"`(silkmoth_\w+)`", first))
    return rows


def test_observability_doc_tabulates_exactly_the_registered_families(
    monkeypatch,
):
    """No family registered without a row, no row naming an unknown
    family, no family with two rows."""
    registered = _registered_families(monkeypatch)
    rows = _documented_families()
    documented = [name for row in rows for name in row]
    assert len(documented) == len(set(documented)), sorted(documented)
    assert set(documented) == registered, (
        f"only documented: {sorted(set(documented) - registered)}; "
        f"only registered: {sorted(registered - set(documented))}"
    )
    assert "silkmoth_broadcasts_total" not in registered
