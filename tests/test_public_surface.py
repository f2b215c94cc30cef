"""The exported surface: every name in an ``__all__`` really imports.

``from repro.<package> import *`` and documentation both trust
``__all__``; a name that stays listed after its definition moved or
was deleted only fails when someone imports it.  This walks ``repro``
and every subpackage, imports each, and resolves every listed name.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def test_every_subpackage_is_walked():
    assert {"repro.cluster", "repro.obs", "repro.sim", "repro.io"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_imports(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{package} declares no __all__"
    assert len(exported) == len(set(exported)), f"{package}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ lists names it lacks: {missing}"
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(exported) <= set(namespace)
