"""The Section 7.3 fallback: no valid signature => exact full scan.

For edit similarity the weighted scheme is empty when
``q >= delta / (1 - delta)``: even selecting every q-chunk cannot push
the residual bound below theta.  The engine must then compare the
reference against every set -- slower, but still exact.
"""

import random

import pytest

from repro.baselines.brute_force import brute_force_discover
from repro.core.config import Relatedness, SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.sim.functions import SimilarityKind
from repro.tokenize.tokenizers import max_q_for_delta


def _string_sets(rng, n_sets):
    words = ["signature", "matching", "filtering", "verification"]
    sets = []
    for _ in range(n_sets):
        elements = []
        for _ in range(rng.randint(1, 3)):
            word = rng.choice(words)
            if rng.random() < 0.4:
                chars = list(word)
                chars[rng.randrange(len(chars))] = rng.choice("xyz")
                word = "".join(chars)
            elements.append(word)
        sets.append(elements)
    return sets


class TestFullScanFallback:
    DELTA = 0.7  # max legal q is 2; q = 4 forces the empty scheme

    def _engine(self, sets, q):
        config = SilkMothConfig(
            metric=Relatedness.SIMILARITY,
            similarity=SimilarityKind.EDS,
            delta=self.DELTA,
            alpha=0.0,
            q=q,
        )
        collection = SetCollection.from_strings(
            sets, kind=SimilarityKind.EDS, q=q
        )
        return SilkMoth(collection, config), config

    def test_oversized_q_triggers_full_scan(self):
        rng = random.Random(71)
        sets = _string_sets(rng, 10)
        engine, _ = self._engine(sets, q=4)
        _, stats = engine.search_with_stats(
            engine.collection[0], skip_set=0
        )
        assert stats.full_scan

    def test_legal_q_does_not(self):
        rng = random.Random(71)
        sets = _string_sets(rng, 10)
        q_ok = max_q_for_delta(self.DELTA)
        engine, _ = self._engine(sets, q=q_ok)
        _, stats = engine.search_with_stats(
            engine.collection[0], skip_set=0
        )
        assert not stats.full_scan

    def test_full_scan_is_still_exact(self):
        rng = random.Random(72)
        sets = _string_sets(rng, 12)
        engine, config = self._engine(sets, q=4)
        got = sorted((r.reference_id, r.set_id) for r in engine.discover())
        expected = sorted(
            (r.reference_id, r.set_id)
            for r in brute_force_discover(engine.collection, config)
        )
        assert got == expected

    def test_full_scan_respects_size_filter(self):
        # One huge set falls outside the SIMILARITY size window and must
        # be skipped even during a full scan.
        sets = [["abcdef"], ["abcdef"], ["a" * 3] * 40]
        engine, _ = self._engine(sets, q=4)
        _, stats = engine.search_with_stats(engine.collection[0], skip_set=0)
        assert stats.full_scan
        assert stats.initial_candidates == 1  # only the twin, not the giant

    def test_full_scan_counted_in_run_stats(self):
        rng = random.Random(73)
        sets = _string_sets(rng, 8)
        engine, _ = self._engine(sets, q=4)
        engine.discover()
        # One pass per reference with a set after it (symmetric metric).
        assert engine.stats.full_scans == engine.stats.passes == len(sets) - 1
