"""Hypothesis strategies shared by the property-based suites.

Strategies produce small-but-adversarial workloads: token sets drawn
from a deliberately tiny vocabulary (to force collisions, duplicates
and empty elements), and engine configurations sweeping both
relatedness metrics, the token- and edit-based similarity kinds, all
practical signature schemes, and the filter toggles.  Every generated
configuration is valid by construction, so failures always point at
the code under test.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.core.config import Relatedness, SilkMothConfig
from repro.sim.functions import SimilarityKind

#: A tiny vocabulary, so generated sets actually overlap.
WORDS = ("ash", "bay", "elm", "fir", "ivy", "oak", "sky", "yew")

#: The paper's practical signature schemes (Sections 4 and 6) plus the
#: planner's ``auto`` selection.  The ``exhaustive`` and ``random``
#: registry entries are test oracles, not schemes anyone deploys, and
#: are exponential/randomised respectively.
SCHEMES = (
    "weighted",
    "unweighted",
    "comb_unweighted",
    "sim_thresh",
    "skyline",
    "dichotomy",
    "auto",
)

#: Gram lengths the edit-kind strategy sweeps: the evaluation's rule
#: (None) plus pinned values on both sides of the
#: ``q < alpha / (1 - alpha)`` constraint.  Out-of-constraint values
#: are *deliberately* included -- the query planner must keep them
#: exact via the full-scan fallback (the pre-planner latent bug).
EDIT_QS = (None, 1, 2, 3, 5)

TOKEN_KINDS = (
    SimilarityKind.JACCARD,
    SimilarityKind.DICE,
    SimilarityKind.COSINE,
    SimilarityKind.OVERLAP,
)

EDIT_KINDS = (SimilarityKind.EDS, SimilarityKind.NEDS)


def elements(max_words: int = 3) -> st.SearchStrategy[str]:
    """One element: a short bag of vocabulary words (possibly empty)."""
    return st.lists(st.sampled_from(WORDS), min_size=0, max_size=max_words).map(
        " ".join
    )


def token_sets(
    min_elements: int = 0, max_elements: int = 4
) -> st.SearchStrategy[list[str]]:
    """One set: a list of elements (duplicates and empties allowed)."""
    return st.lists(elements(), min_size=min_elements, max_size=max_elements)


def collections(
    min_sets: int = 1, max_sets: int = 6
) -> st.SearchStrategy[list[list[str]]]:
    """A searched collection S as raw string sets."""
    return st.lists(token_sets(), min_size=min_sets, max_size=max_sets)


@st.composite
def duplicated_collections(
    draw, min_sets: int = 2, max_sets: int = 7, max_pool: int = 5
) -> tuple[list[list[str]], list[str]]:
    """``(sets, reference)`` whose elements repeat, as column data does.

    Every set draws from one small pool of element texts, so the same
    content recurs inside a set, across sets and in the reference
    (:func:`collections` rarely repeats anything).  The pool may hold
    the empty element and two texts with one token set (``"ash bay"``
    / ``"bay ash"``); the reference mixes pool members with texts the
    collection never saw.
    """
    pool = draw(st.lists(elements(), min_size=2, max_size=max_pool, unique=True))
    member = st.sampled_from(pool)
    sets = draw(
        st.lists(
            st.lists(member, min_size=0, max_size=5),
            min_size=min_sets,
            max_size=max_sets,
        )
    )
    reference = draw(
        st.lists(st.one_of(member, member, elements()), min_size=1, max_size=4)
    )
    return sets, reference


def token_configs(**overrides) -> st.SearchStrategy[SilkMothConfig]:
    """Configurations across both metrics, all token kinds and schemes."""
    return st.builds(
        SilkMothConfig,
        metric=st.sampled_from(tuple(Relatedness)),
        similarity=st.sampled_from(TOKEN_KINDS),
        delta=st.sampled_from((0.25, 0.5, 0.7, 0.9, 1.0)),
        alpha=st.sampled_from((0.0, 0.35)),
        scheme=st.sampled_from(SCHEMES),
        check_filter=st.booleans(),
        nn_filter=st.booleans(),
        **{key: st.just(value) for key, value in overrides.items()},
    )


def edit_configs(**overrides) -> st.SearchStrategy[SilkMothConfig]:
    """Configurations for the edit-based kinds, with ``q`` unrestricted.

    ``q=None`` applies the evaluation's ``q < alpha / (1 - alpha)``
    rule (Section 8.1); the pinned values sweep both sides of the
    constraint.  Exactness for out-of-constraint combinations is the
    query planner's job: it routes configurations whose scheme cannot
    certify Lemma 1 through the exact full-scan fallback
    (:mod:`repro.planner.validity`), so *every* generated configuration
    must match brute force.
    """
    return st.builds(
        SilkMothConfig,
        metric=st.sampled_from(tuple(Relatedness)),
        similarity=st.sampled_from(EDIT_KINDS),
        delta=st.sampled_from((0.4, 0.7)),
        alpha=st.sampled_from((0.0, 0.35, 0.6, 0.8)),
        q=st.sampled_from(EDIT_QS),
        scheme=st.sampled_from(SCHEMES),
        check_filter=st.booleans(),
        nn_filter=st.booleans(),
        **{key: st.just(value) for key, value in overrides.items()},
    )


#: Weights that collide: element similarities are ratios of small
#: integers, so equal row maxima and equal-score matchings are common.
TIE_WEIGHTS = (1.0, 1 / 2, 1 / 3, 2 / 3, 3 / 7, 1 / 4, 3 / 5)


@st.composite
def tie_heavy_matrices(draw, max_side: int = 5) -> list[list[float]]:
    """A sparse non-negative weight matrix drawn to be tie-heavy.

    Half the cells are 0 (so all-zero rows, columns and matrices are
    common), the rest come from :data:`TIE_WEIGHTS`; rows and columns
    are duplicated, and the shape is anything from 1 x m and n x 1 to
    square.
    """
    n = draw(st.integers(1, max_side))
    m = draw(st.integers(1, max_side))
    cell = st.one_of(st.just(0.0), st.sampled_from(TIE_WEIGHTS))
    matrix = [draw(st.lists(cell, min_size=m, max_size=m)) for _ in range(n)]
    row, col = st.integers(0, n - 1), st.integers(0, m - 1)
    for target, source in draw(st.lists(st.tuples(row, row), max_size=2)):
        matrix[target] = list(matrix[source])
    for target, source in draw(st.lists(st.tuples(col, col), max_size=2)):
        for line in matrix:
            line[target] = line[source]
    return matrix


def string_sets(
    min_elements: int = 0, max_elements: int = 3
) -> st.SearchStrategy[list[str]]:
    """Sets of short raw strings for the edit-based kinds."""
    alphabet = st.sampled_from("abc")
    word = st.text(alphabet=alphabet, min_size=0, max_size=5)
    return st.lists(word, min_size=min_elements, max_size=max_elements)


def string_collections(
    min_sets: int = 1, max_sets: int = 5
) -> st.SearchStrategy[list[list[str]]]:
    """A searched collection of raw-string sets (edit kinds)."""
    return st.lists(string_sets(), min_size=min_sets, max_size=max_sets)


#: String lengths on both sides of the Myers lanes' one-word limit
#: (patterns of 1..64 characters are vectorised; 0 and 65 are not).
GRID_LENGTHS = (0, 1, 5, 63, 64, 65)

#: Characters an edit may write: plain ASCII, one non-ASCII letter (the
#: lanes take ASCII only) and NUL (the lane buffer pads with it).
GRID_EDIT_CHARS = "abé\0"


def _apply_edits(base: str, edits) -> str:
    """*base* after substitute / insert / delete operations."""
    chars = list(base)
    for op, position, char in edits:
        at = position % (len(chars) + 1)
        if op == "insert":
            chars.insert(at, char)
        elif chars and op == "delete":
            del chars[at % len(chars)]
        elif chars:
            chars[at % len(chars)] = char
    return "".join(chars)


@st.composite
def edit_grid_strings(draw, max_patterns: int = 4, max_texts: int = 12):
    """``(patterns, texts)`` for an edit-similarity grid.

    Near-duplicates of one or two base strings of boundary lengths, so
    cells land on both sides of the alpha band; texts repeat (several
    candidates sharing an element) and may equal a pattern.
    """
    bases = draw(
        st.lists(
            st.sampled_from(GRID_LENGTHS).flatmap(
                lambda n: st.text(alphabet="ab", min_size=n, max_size=n)
            ),
            min_size=1,
            max_size=2,
        )
    )
    variant = st.builds(
        _apply_edits,
        st.sampled_from(bases),
        st.lists(
            st.tuples(
                st.sampled_from(("substitute", "insert", "delete")),
                st.integers(min_value=0, max_value=70),
                st.sampled_from(GRID_EDIT_CHARS),
            ),
            max_size=3,
        ),
    )
    patterns = draw(st.lists(variant, min_size=1, max_size=max_patterns))
    texts = draw(st.lists(variant, min_size=0, max_size=max_texts))
    repeats = draw(st.lists(st.sampled_from(texts + patterns), max_size=4))
    return patterns, texts + repeats


def clustered_edit_sets(
    seed: int, clusters: int = 4, sets_per_cluster: int = 4, strings: int = 5
) -> list[list[str]]:
    """Sets of near-duplicate strings, cluster by cluster (verify-heavy).

    Every set of a cluster perturbs the same *strings* base strings by
    0-2 edits, so the filters let most same-cluster candidates through
    and verification sees grids of a few hundred cells.
    """
    rng = random.Random(seed)
    sets: list[list[str]] = []
    for _ in range(clusters):
        bases = [
            "".join(rng.choice("abcdefgh ") for _ in range(rng.randint(8, 16)))
            for _ in range(strings)
        ]
        for _ in range(sets_per_cluster):
            sets.append(
                [
                    _apply_edits(
                        base,
                        [
                            (
                                rng.choice(("substitute", "insert", "delete")),
                                rng.randrange(70),
                                rng.choice("abcdefgh"),
                            )
                            for _ in range(rng.randint(0, 2))
                        ],
                    )
                    for base in bases
                ]
            )
    return sets
