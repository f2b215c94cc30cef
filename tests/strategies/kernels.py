"""The numpy kernels' on / off axis, for the suites that pin them.

The compute backend hands a batch to :mod:`repro.backends.numpy_kernels`
once it reaches one of two gates (``select_min_postings``,
``edit_batch_min_tasks``).  :func:`kernel_mode` patches both gates so
that every posting merge and every edit batch takes the numpy kernels
(``"on"``: gates at 0) or the scalar path (``"off"``: gates at
``sys.maxsize``); parametrise a suite over :data:`KERNEL_MODES` and run
its body inside the context (``"on"`` skips when numpy is missing), or
loop over :data:`LOADED_KERNEL_MODES`.  A module that imports
:func:`kernel_axis` runs every one of its tests once per mode.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import pytest

from repro.backends import ComputeBackend, base

KERNEL_MODES = ("on", "off")
#: The modes this interpreter can run.
LOADED_KERNEL_MODES = KERNEL_MODES if base.numpy_kernels is not None else ("off",)


@contextmanager
def kernel_mode(mode: str):
    """Route every batch to the numpy kernels (``"on"``) or none (``"off"``)."""
    if mode == "on" and base.numpy_kernels is None:
        pytest.skip("numpy not installed")
    gate = 0 if mode == "on" else sys.maxsize
    saved = ComputeBackend.select_min_postings, ComputeBackend.edit_batch_min_tasks
    ComputeBackend.select_min_postings = ComputeBackend.edit_batch_min_tasks = gate
    try:
        yield
    finally:
        ComputeBackend.select_min_postings, ComputeBackend.edit_batch_min_tasks = saved


@pytest.fixture(scope="module", params=KERNEL_MODES, autouse=True)
def kernel_axis(request):
    """Every test of the importing module, under each kernel mode.

    Module-scoped, so Hypothesis tests take it too (their health check
    refuses function-scoped fixtures); pytest groups the module's tests
    by mode and patches the gates once per group.
    """
    with kernel_mode(request.param):
        yield request.param
