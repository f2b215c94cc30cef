"""Figure 7: reduction-based verification on inclusion dependency.

Replicates Section 8.4: alpha = 0 (the reduction requires it), only
reference columns with at least 100 elements, DICHOTOMY scheme with the
NN filter on, REDUCTION vs NOREDUCTION over theta.

Expected shape (paper): reduction wins at every theta (30-50% there);
the advantage comes from identical elements shrinking the cubic
matching, so our dirty-subset columns (which share many values with
their supersets) show the same effect.
"""

import pytest

from repro.bench.harness import run_search
from repro.bench.reporting import print_series
from benchmarks.conftest import THETAS, scaled
from repro.core.config import Relatedness, SilkMothConfig
from repro.core.records import SetCollection
from repro.datasets.webtable import webtable_like_columns


@pytest.fixture(scope="module")
def big_columns():
    """Columns with >= 100 values, as in the paper's Figure 7 setup.

    ``values_per_column=200`` makes even the dirty subset columns
    (half-size) clear the 100-element bar, so subset references are
    genuinely contained in their supersets and verification -- the
    stage the reduction accelerates -- actually runs.
    """
    sets = webtable_like_columns(
        scaled(120), seed=41, values_per_column=200, containment_fraction=0.5
    )
    collection = SetCollection.from_strings(sets)
    references = [i for i in range(len(collection)) if len(collection[i]) >= 100]
    return collection, references[: max(5, scaled(10))]


#: Interleaved NOREDUCTION / REDUCTION rounds per theta; each side keeps
#: its best round, so one scheduling hiccup on a shared box cannot
#: decide a comparison whose margin is under 10 %.
ROUNDS = 3


@pytest.fixture(scope="module")
def fig7_results(big_columns):
    collection, references = big_columns
    times = {"NOREDUCTION": [], "REDUCTION": []}
    matches = {"NOREDUCTION": [], "REDUCTION": []}
    for delta in THETAS:
        best = {}
        found = {}
        for _ in range(ROUNDS):
            for label, reduction in (("NOREDUCTION", False), ("REDUCTION", True)):
                config = SilkMothConfig(
                    metric=Relatedness.CONTAINMENT,
                    delta=delta,
                    alpha=0.0,
                    scheme="dichotomy",
                    reduction=reduction,
                )
                result = run_search(collection, config, references, label)
                best[label] = min(best.get(label, result.seconds), result.seconds)
                found.setdefault(label, set()).add(result.matches)
        for label in times:
            times[label].append(best[label])
            (count,) = found[label]  # every round found the same matches
            matches[label].append(count)
    return times, matches


def test_fig7_series(fig7_results):
    times, matches = fig7_results
    print_series(
        "Figure 7: reduction-based verification, inclusion dep. (alpha=0)",
        "theta", THETAS, times,
        extra={"matches": matches["REDUCTION"]},
    )
    # Exactness: reduction never changes the answer.
    assert matches["REDUCTION"] == matches["NOREDUCTION"]


def test_fig7_reduction_is_faster_overall(fig7_results):
    times, _ = fig7_results
    reduced, plain = sum(times["REDUCTION"]), sum(times["NOREDUCTION"])
    print(
        f"\nfig7 sweep totals: NOREDUCTION {plain:.3f}s, REDUCTION "
        f"{reduced:.3f}s, ratio {reduced / plain:.3f} "
        f"(best of {ROUNDS} interleaved rounds per theta)"
    )
    # Wall-clock can be noisy per point; require the sweep total to win.
    assert reduced < plain


def test_fig7_benchmark_reduction(big_columns, benchmark):
    collection, references = big_columns
    config = SilkMothConfig(
        metric=Relatedness.CONTAINMENT, delta=0.7, alpha=0.0,
        scheme="dichotomy", reduction=True,
    )
    benchmark.pedantic(
        lambda: run_search(collection, config, references[:3]),
        rounds=3, iterations=1,
    )
