"""Bit-parallel Myers kernel: equivalence with the classic DP.

The Myers kernel is the shipping edit-distance implementation; the
dynamic programs in :mod:`repro.sim.levenshtein` are its executable
specification.  These properties pin exact equivalence -- including
unicode, strings past the 64-character single-word boundary, and the
``bound + 1`` overflow contract of the bounded variant -- plus the
dispatcher fast paths (prefix/suffix trimming, length short-circuit).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.levenshtein import (
    levenshtein,
    levenshtein_dp,
    levenshtein_within,
    levenshtein_within_dp,
)
from repro.sim.myers import myers_distance, myers_within

# Mixed-width alphabet: ASCII, Latin-1, BMP, astral.  Repetition-heavy
# so trimming paths and runs of matches are exercised.
_texts = st.text(alphabet="ab xyðé☃𝄞", max_size=140)

_bounds = st.integers(min_value=-2, max_value=20)


class TestMyersDistance:
    @given(_texts, _texts)
    @settings(max_examples=300, deadline=None)
    def test_equals_classic_dp(self, x, y):
        assert myers_distance(x, y) == levenshtein_dp(x, y)

    def test_long_unicode_past_word_boundary(self):
        # > 64 characters forces the multi-word big-int path.
        x = "é☃" * 50
        y = "é☃" * 50 + "abc"
        assert len(x) > 64
        assert myers_distance(x, y) == 3
        assert myers_distance(x, x) == 0

    def test_empty_sides(self):
        assert myers_distance("", "") == 0
        assert myers_distance("", "abc") == 3
        assert myers_distance("abc", "") == 3

    @given(_texts, _texts)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, x, y):
        assert myers_distance(x, y) == myers_distance(y, x)


class TestMyersWithin:
    @given(_texts, _texts, _bounds)
    @settings(max_examples=300, deadline=None)
    def test_equals_banded_dp_contract(self, x, y, bound):
        # The reference owns the contract, including bound < 0 and the
        # bound + 1 overflow signal.
        assert myers_within(x, y, bound) == levenshtein_within_dp(x, y, bound)

    @given(_texts, _texts, st.integers(min_value=0, max_value=30))
    @settings(max_examples=200, deadline=None)
    def test_overflow_contract(self, x, y, bound):
        exact = levenshtein_dp(x, y)
        expected = exact if exact <= bound else bound + 1
        assert myers_within(x, y, bound) == expected

    def test_long_strings_with_tight_bound(self):
        x = "a" * 100 + "🎵" * 30
        y = "a" * 100 + "🎶" * 30
        assert myers_within(x, y, 5) == 6
        assert myers_within(x, y, 30) == 30


class TestDispatcher:
    @given(_texts, _texts)
    @settings(max_examples=150, deadline=None)
    def test_kernels_agree_through_the_entry_point(self, x, y):
        assert levenshtein(x, y) == levenshtein_dp(x, y)

    @given(_texts, _texts, _bounds)
    @settings(max_examples=150, deadline=None)
    def test_bounded_kernels_agree_through_the_entry_point(self, x, y, bound):
        assert levenshtein_within(x, y, bound) == levenshtein_within_dp(x, y, bound)

    def test_trimming_fast_path_is_distance_neutral(self):
        assert levenshtein("prefix-A-suffix", "prefix-B-suffix") == 1
        assert levenshtein_within("prefix-A-suffix", "prefix-BB-suffix", 5) == 2

    def test_length_difference_short_circuit(self):
        assert levenshtein_within("a", "abcdefg", 3) == 4


class TestReference:
    """The dynamic programs are the oracle, so pin them to known answers."""

    @pytest.mark.parametrize(
        "x, y, distance",
        [
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("", "abc", 3),
            ("é☃𝄞", "☃é𝄞", 2),
            ("intention", "execution", 5),
        ],
    )
    def test_known_distances(self, x, y, distance):
        for a, b in ((x, y), (y, x)):
            assert levenshtein_dp(a, b) == distance
            assert levenshtein(a, b) == distance
            # At the distance the bound holds; one below it overflows.
            assert levenshtein_within_dp(a, b, distance) == distance
            assert levenshtein_within_dp(a, b, distance - 1) == distance
            assert levenshtein_within(a, b, distance - 1) == distance
