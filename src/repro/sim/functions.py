"""Similarity functions ``phi`` and the ``alpha``-thresholded wrapper.

The paper (Section 2.1) defines similarity between two *elements* -- an
element is a bag of word tokens under the token-based functions, or a
raw string under the edit-based ones -- and optionally zeroes out
similarities below a threshold ``alpha``::

    phi_alpha(x, y) = phi(x, y)  if phi(x, y) >= alpha else 0

The paper evaluates Jaccard and Eds and notes the other members of the
two families "can be supported in similar ways" (Section 2.1).  We
implement that claim: Dice, cosine and overlap are additional
token-based kinds, each with its own signature bound derivation (see
:mod:`repro.signatures.weights`).

:class:`SimilarityFunction` bundles a similarity kind with ``alpha`` and
exposes both the token-level interface used by the filters (which operate
on token id sets) and the string-level interface used by verification.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Collection
from dataclasses import dataclass

from repro.core.constants import EPSILON
from repro.sim.levenshtein import levenshtein, levenshtein_within


def _as_sets(x: Collection, y: Collection) -> tuple[Collection, Collection]:
    if not isinstance(x, (set, frozenset)):
        x = set(x)
    if not isinstance(y, (set, frozenset)):
        y = set(y)
    return x, y


def jaccard(x: Collection, y: Collection) -> float:
    """Jaccard similarity ``|x & y| / (|x| + |y| - |x & y|)`` of two token sets."""
    if not x or not y:
        return 1.0 if not x and not y else 0.0
    x, y = _as_sets(x, y)
    inter = len(x & y)
    if inter == 0:
        return 0.0
    return inter / (len(x) + len(y) - inter)


def dice(x: Collection, y: Collection) -> float:
    """Sorensen-Dice similarity ``2 |x & y| / (|x| + |y|)`` of two token sets."""
    if not x or not y:
        return 1.0 if not x and not y else 0.0
    x, y = _as_sets(x, y)
    inter = len(x & y)
    if inter == 0:
        return 0.0
    return 2.0 * inter / (len(x) + len(y))


def cosine(x: Collection, y: Collection) -> float:
    """Set cosine similarity ``|x & y| / sqrt(|x| * |y|)`` of two token sets."""
    if not x or not y:
        return 1.0 if not x and not y else 0.0
    x, y = _as_sets(x, y)
    inter = len(x & y)
    if inter == 0:
        return 0.0
    return inter / math.sqrt(len(x) * len(y))


def overlap(x: Collection, y: Collection) -> float:
    """Overlap coefficient ``|x & y| / min(|x|, |y|)`` of two token sets."""
    if not x or not y:
        return 1.0 if not x and not y else 0.0
    x, y = _as_sets(x, y)
    inter = len(x & y)
    if inter == 0:
        return 0.0
    return inter / min(len(x), len(y))


def eds(x: str, y: str) -> float:
    """Edit similarity ``1 - 2*LD / (|x| + |y| + LD)`` (paper Section 2.1).

    The dual distance ``1 - eds`` satisfies the triangle inequality, which
    is what enables the reduction-based verification of Section 5.3.
    """
    if x == y:
        return 1.0
    distance = levenshtein(x, y)
    return 1.0 - 2.0 * distance / (len(x) + len(y) + distance)


def neds(x: str, y: str) -> float:
    """Normalised edit similarity ``1 - LD / max(|x|, |y|)``."""
    if x == y:
        return 1.0
    longest = max(len(x), len(y))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(x, y) / longest


#: Token-set similarity callables keyed by kind value.
_TOKEN_FUNCTIONS = {
    "jaccard": jaccard,
    "dice": dice,
    "cosine": cosine,
    "overlap": overlap,
}


class SimilarityKind(enum.Enum):
    """The element similarity functions SilkMoth supports.

    Four token-based kinds (elements are bags of whitespace words) and
    two character-based kinds (elements are raw strings, tokenised into
    q-grams for indexing).
    """

    JACCARD = "jaccard"
    DICE = "dice"
    COSINE = "cosine"
    OVERLAP = "overlap"
    EDS = "eds"
    NEDS = "neds"

    @property
    def is_edit_based(self) -> bool:
        """True for the two character-level (q-gram tokenised) functions."""
        return self in (SimilarityKind.EDS, SimilarityKind.NEDS)

    @property
    def is_token_based(self) -> bool:
        """True for the word-token set similarities."""
        return not self.is_edit_based

    @property
    def supports_reduction(self) -> bool:
        """True when ``1 - phi`` is a metric, enabling Section 5.3.

        Jaccard distance and the ``1 - Eds`` dual both satisfy the
        triangle inequality.  Dice, cosine, overlap and NEds duals do
        not (the paper singles out Eds as "the preferable edit
        similarity function" for exactly this reason), so the
        identical-element reduction would be unsound for them.
        """
        return self in (SimilarityKind.JACCARD, SimilarityKind.EDS)


@dataclass(frozen=True)
class SimilarityFunction:
    """An ``alpha``-thresholded element similarity function ``phi_alpha``.

    Parameters
    ----------
    kind:
        Which base similarity to use.
    alpha:
        Minimum element similarity; scores below ``alpha`` are treated
        as 0 (paper Section 2.1).  ``alpha = 0`` disables thresholding.
    """

    kind: SimilarityKind
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")

    # ------------------------------------------------------------------
    # Raw (unthresholded) similarity
    # ------------------------------------------------------------------
    def raw_tokens(self, x: Collection, y: Collection) -> float:
        """Unthresholded similarity of two token-id sets (token kinds only)."""
        if self.kind.is_edit_based:
            raise ValueError("raw_tokens requires a token-based kind")
        return _TOKEN_FUNCTIONS[self.kind.value](x, y)

    def raw_strings(self, x: str, y: str) -> float:
        """Unthresholded similarity of two element strings."""
        if self.kind is SimilarityKind.EDS:
            return eds(x, y)
        if self.kind is SimilarityKind.NEDS:
            return neds(x, y)
        return _TOKEN_FUNCTIONS[self.kind.value](x.split(), y.split())

    # ------------------------------------------------------------------
    # alpha-thresholded similarity
    # ------------------------------------------------------------------
    def __call__(self, x: str, y: str) -> float:
        """``phi_alpha`` on two element strings."""
        return self.threshold(self.raw_strings(x, y))

    def tokens(self, x: Collection, y: Collection) -> float:
        """``phi_alpha`` on two token-id sets (token kinds only)."""
        return self.threshold(self.raw_tokens(x, y))

    def threshold(self, score: float) -> float:
        """Apply the ``alpha`` cut-off to a raw similarity score."""
        return score if score >= self.alpha else 0.0

    # ------------------------------------------------------------------
    # Bounded edit similarity (hot-path helper)
    # ------------------------------------------------------------------
    def edit_band(self, len_x: int, len_y: int, cutoff: float) -> int:
        """Largest edit distance whose similarity can still reach *cutoff*.

        The inverse of the kind's similarity formula, shared by the
        scalar banded path (:meth:`edit_at_least`) and the batched
        Myers kernel (:mod:`repro.backends.numpy_kernels`) so both certify rejections with the exact
        same limit.
        """
        # The EPSILON guard keeps float noise from truncating a
        # mathematically-integer limit one too low (which would reject
        # boundary strings and break filter soundness).
        if self.kind is SimilarityKind.EDS:
            # eds >= cutoff  <=>  LD <= (1 - cutoff) * (|x| + |y|) / (1 + cutoff)
            return int((1.0 - cutoff) * (len_x + len_y) / (1.0 + cutoff) + EPSILON)
        if self.kind is SimilarityKind.NEDS:
            return int((1.0 - cutoff) * max(len_x, len_y) + EPSILON)
        raise ValueError("edit_band requires an edit-based kind")

    def no_share_cap(self, length: int, q: int) -> float:
        """Section 7.1's bound on ``phi_alpha(x, s)`` when s shares no q-gram with x.

        For ``|x| = length`` it is ``|x| / (|x| + ceil(|x|/q))``,
        thresholded: under the evaluation's ``q < alpha/(1-alpha)``
        constraint the cap is below alpha and thresholds to 0, so only
        pairs that share a gram can score.  An empty x shares nothing yet scores 1 against an empty
        s, so its cap is 1.  Token kinds: 0 (no shared token, no
        similarity; the empty-probe case is the caller's).
        """
        if self.kind.is_token_based:
            return 0.0
        if length == 0:
            return 1.0
        return self.threshold(length / (length + math.ceil(length / q)))

    def edit_score_from_distance(
        self, len_x: int, len_y: int, distance: int, floor: float
    ) -> float:
        """The floored ``phi_alpha`` given an exact edit *distance*.

        The closing arithmetic of :meth:`edit_at_least`, factored out so
        a kernel that obtains the distance in a batch can apply
        the identical formula (and thus return bit-identical floats).
        """
        if self.kind is SimilarityKind.EDS:
            score = 1.0 - 2.0 * distance / (len_x + len_y + distance)
        else:
            score = 1.0 - distance / max(len_x, len_y)
        return self.threshold(score) if score >= floor else 0.0

    def tokens_from_counts(self, size_x: int, size_y: int, shared: int) -> float:
        """``phi_alpha`` of two token sets given ``|x|``, ``|y|``, ``|x & y|``.

        The token kinds' closed forms without the sets themselves: the
        same operations on the same integers as :meth:`tokens`, so the
        float is bit-identical.  Lets a caller that counted the intersection
        elsewhere -- the NN filter counts it off the posting lists --
        skip the set intersection.
        """
        kind = self.kind
        if shared == 0 and kind.is_token_based:
            score = 1.0 if size_x == 0 and size_y == 0 else 0.0
        elif kind is SimilarityKind.JACCARD:
            score = shared / (size_x + size_y - shared)
        elif kind is SimilarityKind.DICE:
            score = 2.0 * shared / (size_x + size_y)
        elif kind is SimilarityKind.COSINE:
            score = shared / math.sqrt(size_x * size_y)
        elif kind is SimilarityKind.OVERLAP:
            score = shared / min(size_x, size_y)
        else:
            raise ValueError("tokens_from_counts requires a token-based kind")
        return score if score >= self.alpha else 0.0

    def edit_at_least(self, x: str, y: str, floor: float) -> float:
        """``phi_alpha(x, y)`` for edit kinds, or 0.0 if it is below *floor*.

        Uses the banded Levenshtein so strings that cannot reach *floor*
        are rejected without filling the full DP table.
        """
        cutoff = max(floor, self.alpha)
        if cutoff <= 0.0:
            return self.threshold(self.raw_strings(x, y))
        if x == y:
            return 1.0
        len_x, len_y = len(x), len(y)
        max_ld = self.edit_band(len_x, len_y, cutoff)
        distance = levenshtein_within(x, y, max_ld)
        if distance > max_ld:
            return 0.0
        return self.edit_score_from_distance(len_x, len_y, distance, floor)
