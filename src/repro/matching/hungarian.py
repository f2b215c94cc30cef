"""Hungarian algorithm for maximum weight bipartite matching.

Implemented from scratch using the O(n^3) shortest augmenting path
formulation with potentials (Jonker-Volgenant style) on plain Python
lists.  It is the one dense solver of the system: verification
(:mod:`repro.matching.sparse`) hands it only the few small connected
components of a weight matrix whose row maxima collide, and at those
sizes lists beat an array sweep of the same algorithm (the crossover
is near n = 96; measurements: CHANGES.md, PR 24).

:func:`hungarian_assignment` maximises total weight over *partial*
assignments of min(n, m) pairs; since all our weights are non-negative,
a maximum-cardinality maximum-weight assignment also maximises weight
over all matchings.  It returns the matched ``(row, column, weight)``
triples in *summation order*, and :func:`matching_total` is the one
routine that turns triples into a score.

:func:`scipy_max_weight` wraps ``scipy.optimize.linear_sum_assignment``
and exists only so tests can cross-check the hand-rolled solver.
"""

from __future__ import annotations

from typing import Iterable, Sequence

#: One edge of a matching: ``(row, column, weight)``.
Triple = tuple[int, int, float]


def _rows(weights) -> list[list[float]]:
    """Normalise any 2-D array-like into a list of float rows."""
    try:
        rows = [[float(w) for w in row] for row in weights]
    except TypeError:
        raise ValueError("weight matrix must be 2-dimensional") from None
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ValueError("weight matrix rows must have equal length")
    return rows


def matching_total(triples: Iterable[Triple]) -> float:
    """The score of a matching: its weights added with ``+=``, in order.

    Every matching score in the system is formed here, from triples in
    summation order -- ascending column when the matrix has no more
    non-empty rows than non-zero columns, ascending row otherwise -- so
    two callers holding the same matching cannot disagree in any bit.
    """
    total = 0.0
    for _, _, weight in triples:
        total += weight
    return total


def hungarian_assignment(weights: Sequence[Sequence[float]]) -> list[Triple]:
    """A maximum-weight matching of a dense matrix, in summation order.

    Zero-weight pairs are omitted: they never change the score and a
    maximum matching containing them always has an equal-score sibling
    without them.
    """
    rows = _rows(weights)
    n = len(rows)
    m = len(rows[0]) if n else 0
    if n == 0 or m == 0:
        return []
    if min(min(row) for row in rows) < 0:
        raise ValueError("weights must be non-negative")

    # Drop all-zero rows and columns: a zero row can only add weight 0
    # to any assignment, and removing it frees its column for other
    # rows, so the optimum over the pruned matrix equals the original.
    row_ids = [i for i, row in enumerate(rows) if any(w > 0.0 for w in row)]
    col_ids = [j for j in range(m) if any(row[j] > 0.0 for row in rows)]
    if len(row_ids) < n or len(col_ids) < m:
        rows = [[rows[i][j] for j in col_ids] for i in row_ids]
        n, m = len(row_ids), len(col_ids)
        if n == 0 or m == 0:
            return []

    # Work on the transposed matrix if needed so rows <= cols.
    transposed = n > m
    if transposed:
        rows = [[rows[i][j] for i in range(n)] for j in range(m)]
        n, m = m, n

    # Convert maximisation to minimisation: cost = max_w - w.
    max_w = max(max(row) for row in rows)
    cost = [[max_w - w for w in row] for row in rows]

    INF = float("inf")
    # Potentials; 1-based row indexing internally per the classic
    # formulation, with a dummy column 0 in front.
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    match_col = [0] * (m + 1)  # column j -> matched row (0 = free)

    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        way = [0] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            u_i0 = u[i0]
            cost_row = cost[i0 - 1]
            delta = INF
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = cost_row[j - 1] - u_i0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        # Augment along the path.
        while j0 != 0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1

    # Working-column order is the summation order: ascending original
    # column, or ascending original row after a transposition.
    triples: list[Triple] = []
    for j in range(1, m + 1):
        i = match_col[j]
        if i == 0:
            continue
        weight = rows[i - 1][j - 1]
        if weight <= 0.0:
            continue
        if transposed:
            triples.append((row_ids[j - 1], col_ids[i - 1], weight))
        else:
            triples.append((row_ids[i - 1], col_ids[j - 1], weight))
    return triples


def hungarian_max_weight(weights: Sequence[Sequence[float]]) -> float:
    """Maximum-weight assignment score for a non-negative weight matrix."""
    return matching_total(hungarian_assignment(weights))


def scipy_max_weight(weights) -> float:
    """Maximum-weight assignment via scipy, for cross-checking only."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    weights = np.asarray(weights, dtype=np.float64)
    if weights.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(weights, maximize=True)
    return float(weights[rows, cols].sum())
