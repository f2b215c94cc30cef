"""Property-based exactness: the staged pipeline equals brute force.

The core claim of the paper (and of the refactor) in one property: for
*any* collection, reference and configuration, the pipeline returns
exactly the brute-force related sets -- with the numpy kernels taking
every batch and with none of them.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.brute_force import brute_force_search
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from strategies import (
    collections,
    edit_configs,
    string_collections,
    string_sets,
    token_configs,
    token_sets,
)
from strategies.kernels import kernel_axis  # noqa: F401 (autouse axis)

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_exact(sets, reference_elements, config) -> None:
    collection = SetCollection.from_strings(
        sets, kind=config.similarity, q=config.effective_q
    )
    engine = SilkMoth(collection, config)
    reference = engine.reference_collection([reference_elements])[0]
    got = engine.search(reference)
    expected = brute_force_search(reference, collection, config)
    assert [r.set_id for r in got] == [r.set_id for r in expected]
    for mine, oracle in zip(got, expected):
        assert mine.score == pytest.approx(oracle.score, abs=1e-9)
        assert mine.relatedness == pytest.approx(oracle.relatedness, abs=1e-9)


class TestPipelineExactness:
    @_SETTINGS
    @given(sets=collections(), reference=token_sets(), config=token_configs())
    def test_token_kinds_match_brute_force(self, sets, reference, config):
        _assert_exact(sets, reference, config)

    @_SETTINGS
    @given(
        sets=string_collections(),
        reference=string_sets(),
        config=edit_configs(),
    )
    def test_edit_kinds_match_brute_force(self, sets, reference, config):
        _assert_exact(sets, reference, config)
