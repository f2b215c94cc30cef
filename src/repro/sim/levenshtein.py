"""Levenshtein (edit) distance: fast-path trimming + the Myers kernel.

Two entry points are provided:

* :func:`levenshtein` -- the exact distance.
* :func:`levenshtein_within` -- a bounded variant that gives up early
  once the distance provably exceeds a caller-supplied bound, returning
  ``bound + 1``.  The SilkMoth verification step only needs the exact
  distance when the resulting similarity can still clear ``alpha``, so
  the bounded variant is the one the engine uses on hot paths.

Both apply the cheap fast paths first -- equality, common prefix/suffix
trimming, the empty-remainder shortcut, and (for the bounded variant)
the length-difference short-circuit -- and then run the bit-parallel
kernel of :mod:`repro.sim.myers`: ``O(ceil(n/w) * m)`` word operations
instead of ``O(n * m)`` cell updates, measured 2-30x faster than the
DP on SilkMoth workloads.

The classic dynamic programs (:func:`levenshtein_dp` /
:func:`levenshtein_within_dp`) stay in this module as the executable
reference the bit-parallel kernel and the entry points are
property-tested against (``tests/test_myers.py``).
"""

from __future__ import annotations

from repro.sim.myers import myers_distance, myers_within


def _trim_affixes(x: str, y: str) -> tuple:
    """Strip the common prefix and suffix of *x*, *y* (distance-neutral).

    Every edit script must leave a shared prefix/suffix untouched in
    some optimal alignment, so ``LD(x, y)`` equals the distance of the
    trimmed remainders -- and the kernels then run on (often much)
    shorter strings.
    """
    start = 0
    end_x, end_y = len(x), len(y)
    while start < end_x and start < end_y and x[start] == y[start]:
        start += 1
    while end_x > start and end_y > start and x[end_x - 1] == y[end_y - 1]:
        end_x -= 1
        end_y -= 1
    return x[start:end_x], y[start:end_y]


def levenshtein(x: str, y: str) -> int:
    """Return the minimum number of single-character edits turning *x* into *y*.

    Edits are insertion, deletion and substitution, each with unit
    cost.  Applies the fast paths, then runs the Myers kernel on the
    trimmed remainders.
    """
    if x == y:
        return 0
    x, y = _trim_affixes(x, y)
    if not x or not y:
        return len(x) or len(y)
    return myers_distance(x, y)


def levenshtein_within(x: str, y: str, bound: int) -> int:
    """Return ``LD(x, y)`` if it is at most *bound*, else ``bound + 1``.

    The fast paths run first: equality, the length-difference
    short-circuit (``| |x| - |y| | > bound`` already certifies the
    overflow), and common prefix/suffix trimming; only then does the
    bounded Myers kernel see the remainders.
    """
    if bound < 0:
        return 0 if x == y else bound + 1
    if x == y:
        return 0
    if abs(len(x) - len(y)) > bound:
        return bound + 1
    x, y = _trim_affixes(x, y)
    if not x or not y:
        length = len(x) or len(y)
        return length if length <= bound else bound + 1
    return myers_within(x, y, bound)


# ----------------------------------------------------------------------
# Classic dynamic programs: the executable reference kernels
# ----------------------------------------------------------------------
def levenshtein_dp(x: str, y: str) -> int:
    """The classic two-row dynamic program (reference kernel).

    Runs in ``O(|x| * |y|)`` time and ``O(min(|x|, |y|))`` space.  The
    bit-parallel kernel is property-tested equivalent to this.
    """
    if x == y:
        return 0
    # Keep the inner loop over the shorter string.
    if len(x) < len(y):
        x, y = y, x
    if not y:
        return len(x)

    previous = list(range(len(y) + 1))
    for i, cx in enumerate(x, start=1):
        current = [i] + [0] * len(y)
        for j, cy in enumerate(y, start=1):
            cost = 0 if cx == cy else 1
            current[j] = min(
                previous[j] + 1,        # deletion
                current[j - 1] + 1,     # insertion
                previous[j - 1] + cost, # substitution / match
            )
        previous = current
    return previous[-1]


def levenshtein_within_dp(x: str, y: str, bound: int) -> int:
    """Banded dynamic program honouring the ``bound + 1`` contract.

    Uses Ukkonen's band: only cells within *bound* of the diagonal can
    contribute to a distance of at most *bound*, so the DP is
    restricted to a band of width ``2 * bound + 1`` and abandoned as
    soon as every cell in a row exceeds the bound.
    """
    if bound < 0:
        return 0 if x == y else bound + 1
    if x == y:
        return 0
    len_x, len_y = len(x), len(y)
    if abs(len_x - len_y) > bound:
        return bound + 1
    if len_x < len_y:
        x, y, len_x, len_y = y, x, len_y, len_x
    if len_y == 0:
        return len_x if len_x <= bound else bound + 1

    big = bound + 1
    previous = [j if j <= bound else big for j in range(len_y + 1)]
    for i in range(1, len_x + 1):
        lo = max(1, i - bound)
        hi = min(len_y, i + bound)
        current = [big] * (len_y + 1)
        if lo == 1:
            current[0] = i if i <= bound else big
        cx = x[i - 1]
        row_min = big
        for j in range(lo, hi + 1):
            cost = 0 if cx == y[j - 1] else 1
            best = previous[j - 1] + cost
            if previous[j] + 1 < best:
                best = previous[j] + 1
            if current[j - 1] + 1 < best:
                best = current[j - 1] + 1
            if best > big:
                best = big
            current[j] = best
            if best < row_min:
                row_min = best
        if row_min >= big:
            return big
        previous = current
    return previous[len_y] if previous[len_y] <= bound else big
