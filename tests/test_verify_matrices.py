"""A verification pass's edit-kind weight matrices against the dense oracle.

:func:`repro.matching.score.edit_weight_matrices` builds every
survivor's weight matrix from one batch per block of candidates.  When
Section 7.1's no-share cap thresholds to 0 for every reference element,
only the cells whose two strings share a q-gram are scored; otherwise,
and in a block where every cell shares, it takes the dense
``edit_grid``.  Whichever path runs, each candidate's matrix must equal
the per-candidate dense ``backend.weight_matrix`` -- every weight bit
for bit, and every row's key order, which the assignment's tie-breaking
reads.  The inputs cross the boundaries that matter: q in {1, 2, 3} on
both sides of ``q < alpha/(1-alpha)`` (a positive cap forces the dense
grid), empty strings on either side, texts repeated across candidates,
non-ASCII text and strings past the Myers lanes' 64-character word --
with the numpy kernels forced on and off (``kernel_axis``).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.core.records import SetCollection
from repro.matching import score
from repro.matching.score import edit_weight_matrices
from repro.sim.functions import SimilarityFunction, SimilarityKind
from repro.sim.memo import SimilarityMemo
from strategies import EDIT_KINDS, edit_grid_strings
from strategies.kernels import kernel_axis  # noqa: F401 (autouse axis)

#: Thresholds on both sides of q < alpha/(1-alpha) for q in {1, 2, 3}.
ALPHAS = (0.0, 0.5, 0.6, 0.7, 0.8, 0.9)

_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _rows(matrix) -> list[list[tuple[int, float]]]:
    """Sparse rows with their key order, as lists."""
    return [list(row.items()) for row in matrix]


@st.composite
def verify_passes(draw):
    """``(phi, q, reference, candidates, block, memo)`` for one pass."""
    kind = draw(st.sampled_from(EDIT_KINDS))
    phi = SimilarityFunction(kind, draw(st.sampled_from(ALPHAS)))
    q = draw(st.sampled_from((1, 2, 3)))
    patterns, texts = draw(edit_grid_strings())
    # Short strings over a wider alphabet, so that some pairs share no
    # gram at q = 2 and 3.
    others = draw(st.lists(st.text(alphabet="abcdé\0", max_size=6), max_size=6))
    pool = patterns + texts + others
    sets = draw(
        st.lists(
            st.lists(st.sampled_from(pool), max_size=5), min_size=1, max_size=6
        )
    )
    collection = SetCollection.from_strings(sets, kind=kind, q=q)
    # The engine never verifies an empty reference, but a direct caller
    # may: its matrices have no rows.
    where = draw(st.sampled_from(("query", "sibling", "member")))
    if where == "member":
        reference = draw(st.sampled_from(list(collection)))
    else:
        chosen = draw(st.lists(st.sampled_from(patterns + others), max_size=4))
        if where == "query":
            reference = collection.query_set(chosen)
        else:
            reference = collection.sibling().add_set(chosen)
    candidates = list(collection)
    block = draw(st.sampled_from((512, 2, 1)))
    memo = draw(st.sampled_from((None, 4096, 1)))
    memo = None if memo is None else SimilarityMemo(memo)
    return phi, q, reference, candidates, block, memo


class TestEqualsTheDenseOracle:
    def test_an_empty_reference_gets_zero_row_matrices(self):
        collection = SetCollection.from_strings(
            [["ab", "abc"], []], kind=SimilarityKind.EDS, q=2
        )
        phi = SimilarityFunction(SimilarityKind.EDS, 0.5)
        backend = get_backend()
        reference = collection.query_set([])
        matrices = list(
            edit_weight_matrices(reference, list(collection), phi, backend, 2)
        )
        assert matrices == [[], []] == [
            backend.weight_matrix(reference, candidate, phi) for candidate in collection
        ]

    @_SETTINGS
    @given(case=verify_passes())
    def test_every_matrix(self, case):
        phi, q, reference, candidates, block, memo = case
        backend = get_backend()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(score, "GRID_CANDIDATES", block)
            matrices = list(
                edit_weight_matrices(reference, candidates, phi, backend, q, memo)
            )
        assert len(matrices) == len(candidates)
        for candidate, matrix in zip(candidates, matrices):
            expected = backend.weight_matrix(reference, candidate, phi)
            assert _rows(matrix) == _rows(expected)


class TestWhichPathRuns:
    """Sharing cells alone only when every cap is 0 and some cell shares nothing."""

    @pytest.fixture
    def spied(self, monkeypatch):
        backend = get_backend()
        calls = []
        for name in ("edit_grid", "edit_values"):
            method = getattr(backend, name)

            def spy(*args, _name=name, _method=method, **kwargs):
                calls.append(_name)
                return _method(*args, **kwargs)

            monkeypatch.setattr(backend, name, spy)
        return backend, calls

    def _matrices(self, backend, reference, sets, alpha, q):
        phi = SimilarityFunction(SimilarityKind.EDS, alpha)
        collection = SetCollection.from_strings(sets, kind=SimilarityKind.EDS, q=q)
        reference = collection.query_set(reference)
        candidates = list(collection)
        matrices = list(
            edit_weight_matrices(reference, candidates, phi, backend, q)
        )
        for candidate, matrix in zip(candidates, matrices):
            assert _rows(matrix) == _rows(
                backend.weight_matrix(reference, candidate, phi)
            )
        return matrices

    def test_an_all_sharing_block_calls_edit_grid(self, spied):
        backend, calls = spied
        # q = 1 over one alphabet: every cell shares a gram; the cap
        # (0.5 at q = 1) thresholds to 0 at alpha 0.8.
        self._matrices(backend, ["abab", "ba"], [["ab", "bab"], ["abba"]], 0.8, 1)
        assert calls == ["edit_grid", "edit_grid", "edit_grid"]

    def test_a_positive_cap_calls_edit_grid(self, spied):
        backend, calls = spied
        # alpha 0.5 keeps the q = 1 cap at 0.5: no cell may be skipped.
        self._matrices(backend, ["abab", "xyz"], [["ab", "bab"], ["abba"]], 0.5, 1)
        assert calls == ["edit_grid", "edit_grid", "edit_grid"]

    def test_sharing_cells_alone_in_one_batch(self, spied):
        backend, calls = spied
        matrices = self._matrices(
            backend, ["kitten", "sitting"], [["kitten", "zzzz"], ["mitten", ""]], 0.8, 2
        )
        assert calls == ["edit_values", "edit_grid", "edit_grid"]
        assert matrices[0][0] == {0: 1.0}
