"""The compute backend of the staged query pipeline.

The pipeline's numeric kernels (the candidate-selection merge, batched
element similarity, maximum-matching solves) are routed through one
:class:`~repro.backends.base.ComputeBackend`.  Its kernels are scalar
Python; long batches of three shapes take the numpy kernels of
:mod:`repro.backends.numpy_kernels`, imported once with this package
when numpy is installed (so forked workers inherit them loaded and no
timed region pays for the import).  Without numpy the scalar path runs,
with identical results.
"""

from __future__ import annotations

from repro.backends.base import ComputeBackend

_BACKEND = ComputeBackend()


def available_backends() -> tuple[str, ...]:
    """Names :func:`get_backend` accepts: the one backend's."""
    return (_BACKEND.name,)


def get_backend(name: str | None = None) -> ComputeBackend:
    """The process-wide :class:`ComputeBackend`.

    *name* may be ``None`` or the backend's own name
    (:func:`available_backends`); anything else raises ``ValueError``.
    """
    if name is not None and name != _BACKEND.name:
        raise ValueError(
            f"unknown compute backend {name!r}; known: {_BACKEND.name}"
        )
    return _BACKEND


__all__ = [
    "ComputeBackend",
    "available_backends",
    "get_backend",
]
