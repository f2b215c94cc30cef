"""Pluggable compute backends for the staged query pipeline.

The pipeline's numeric kernels (columnar candidate filtering, batched
element similarity, maximum-matching solves) are routed through a
:class:`~repro.backends.base.ComputeBackend`.  Two backends ship:

``python``
    Pure Python, always available, the exactness reference.
``numpy``
    Vectorised kernels; used automatically when numpy is installed.

Selection order (first hit wins):

1. an explicit name passed to :func:`get_backend` (the engine passes
   ``SilkMothConfig.backend``),
2. the ``SILKMOTH_BACKEND`` environment variable,
3. auto: ``numpy`` when importable, else ``python``.

Instances are cached per name: the numpy backend carries process-wide
kernel-dispatch thresholds (``select_min_postings``,
``edit_batch_min_tasks``).  Results never depend on them -- only which
(equally exact) kernel runs.
"""

from __future__ import annotations

import os

from repro.backends.base import ComputeBackend

#: Environment variable consulted when no backend is named explicitly.
BACKEND_ENV_VAR = "SILKMOTH_BACKEND"

#: Names accepted by ``SilkMothConfig.backend`` / ``SILKMOTH_BACKEND``.
KNOWN_BACKENDS = ("python", "numpy")

_INSTANCES: dict[str, ComputeBackend] = {}


def _load(name: str) -> ComputeBackend:
    """Instantiate one backend by name (imports are deliberately lazy)."""
    if name == "python":
        from repro.backends.python_backend import PythonBackend

        return PythonBackend()
    if name == "numpy":
        try:
            from repro.backends.numpy_backend import NumpyBackend
        except ImportError as exc:
            raise RuntimeError(
                "the numpy compute backend was requested but numpy is not "
                "installed (pip install 'silkmoth-repro[numpy]')"
            ) from exc
        return NumpyBackend()
    raise ValueError(
        f"unknown compute backend {name!r}; known: {', '.join(KNOWN_BACKENDS)}"
    )


def numpy_available() -> bool:
    """Whether the numpy backend can actually load."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def available_backends() -> tuple[str, ...]:
    """Names of the backends that can load in this environment."""
    names = ["python"]
    if numpy_available():
        names.append("numpy")
    return tuple(names)


def get_backend(name: str | None = None) -> ComputeBackend:
    """Resolve and cache a compute backend.

    Parameters
    ----------
    name:
        Explicit backend name, or ``None`` to consult the
        ``SILKMOTH_BACKEND`` environment variable and then auto-select
        (numpy when available, python otherwise).

    Raises
    ------
    ValueError
        For a name outside :data:`KNOWN_BACKENDS`.
    RuntimeError
        When the numpy backend is named explicitly but numpy is missing.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or None
    if name is None:
        name = "numpy" if numpy_available() else "python"
    if name not in KNOWN_BACKENDS:
        raise ValueError(
            f"unknown compute backend {name!r}; known: {', '.join(KNOWN_BACKENDS)}"
        )
    backend = _INSTANCES.get(name)
    if backend is None:
        backend = _load(name)
        _INSTANCES[name] = backend
    return backend


__all__ = [
    "BACKEND_ENV_VAR",
    "ComputeBackend",
    "KNOWN_BACKENDS",
    "available_backends",
    "get_backend",
    "numpy_available",
]
