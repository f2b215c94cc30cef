"""The numpy kernels' on / off axis, for the suites that pin them.

The compute backend hands a batch to :mod:`repro.backends.numpy_kernels`
once it reaches one of three gates (``select_min_postings``,
``edit_batch_min_tasks``, ``nn_group_min_sets``).  :func:`kernel_mode`
patches all three so that every posting merge, every edit batch and
every token-kind NN group search takes the numpy kernels (``"on"``:
gates at 0) or the scalar path (``"off"``: gates at ``sys.maxsize``);
parametrise a suite over :data:`KERNEL_MODES` and run its body inside
the context (``"on"`` skips when numpy is missing), or loop over
:data:`LOADED_KERNEL_MODES`.  A module that imports
:func:`kernel_axis` runs every one of its tests once per mode.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import pytest

from repro.backends import ComputeBackend, base

KERNEL_MODES = ("on", "off")
#: The batch-size gates of :class:`ComputeBackend`, one per numpy kernel.
GATES = ("select_min_postings", "edit_batch_min_tasks", "nn_group_min_sets")
#: The modes this interpreter can run.
LOADED_KERNEL_MODES = KERNEL_MODES if base.numpy_kernels is not None else ("off",)


@contextmanager
def kernel_mode(mode: str):
    """Route every batch to the numpy kernels (``"on"``) or none (``"off"``)."""
    if mode == "on" and base.numpy_kernels is None:
        pytest.skip("numpy not installed")
    gate = 0 if mode == "on" else sys.maxsize
    saved = {name: getattr(ComputeBackend, name) for name in GATES}
    for name in GATES:
        setattr(ComputeBackend, name, gate)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(ComputeBackend, name, value)


@pytest.fixture(scope="module", params=KERNEL_MODES, autouse=True)
def kernel_axis(request):
    """Every test of the importing module, under each kernel mode.

    Module-scoped, so Hypothesis tests take it too (their health check
    refuses function-scoped fixtures); pytest groups the module's tests
    by mode and patches the gates once per group.
    """
    with kernel_mode(request.param):
        yield request.param
