"""Hungarian algorithm for maximum weight bipartite matching.

Implemented from scratch using the O(n^3) shortest augmenting path
formulation with potentials (Jonker-Volgenant style), in two variants
behind one public entry point:

* :func:`max_weight_assignment_numpy` -- the per-row Dijkstra sweep is
  vectorised with numpy: the column scan that relaxes ``minv`` and
  finds the next column to settle is a handful of array operations.
  This is the kernel the numpy compute backend uses.
* :func:`max_weight_assignment_python` -- the same algorithm on plain
  Python lists, with no third-party imports.  This is what the pure
  Python backend (and any numpy-less install) runs.

Each returns the score and the matched pairs; the
``hungarian_max_weight_*`` functions are their score halves.

Both maximise total weight over *partial* assignments of min(n, m)
pairs; since all our weights are non-negative, a maximum-cardinality
maximum-weight assignment also maximises weight over all matchings.
:func:`max_weight_assignment` and :func:`hungarian_max_weight` dispatch
on numpy availability so callers keep one import.

:func:`scipy_max_weight` wraps ``scipy.optimize.linear_sum_assignment``
and exists only so tests can cross-check the hand-rolled solvers.
"""

from __future__ import annotations

from typing import Sequence

try:  # numpy is an optional dependency (the numpy compute backend).
    import numpy as np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    np = None


def _rows(weights) -> list[list[float]]:
    """Normalise any 2-D array-like into a list of float rows."""
    rows = [[float(w) for w in row] for row in weights]
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ValueError("weight matrix rows must have equal length")
    return rows


def max_weight_assignment_python(
    weights: Sequence[Sequence[float]],
) -> tuple[float, list[tuple[int, int]]]:
    """Maximum-weight assignment score and its (row, col) pairs, pure Python.

    Zero-weight pairs are omitted from the returned pairs: they never
    change the score and a maximum matching containing them always has
    an equal-score sibling without them.
    """
    rows = _rows(weights)
    n = len(rows)
    m = len(rows[0]) if n else 0
    if n == 0 or m == 0:
        return 0.0, []
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
            return 0.0, []
    else:
        row_ids = list(range(n))
        col_ids = list(range(m))

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

    total = 0.0
    pairs: list[tuple[int, int]] = []
    for j in range(1, m + 1):
        i = match_col[j]
        if i == 0:
            continue
        weight = rows[i - 1][j - 1]
        if weight <= 0.0:
            continue
        total += weight
        if transposed:
            # Working rows are original columns and vice versa.
            pairs.append((row_ids[j - 1], col_ids[i - 1]))
        else:
            pairs.append((row_ids[i - 1], col_ids[j - 1]))
    pairs.sort()
    return total, pairs


def hungarian_max_weight_python(weights: Sequence[Sequence[float]]) -> float:
    """Maximum-weight assignment score on plain Python lists."""
    return max_weight_assignment_python(weights)[0]


def _solve_numpy(weights):
    """The numpy solver both public numpy functions share.

    Validates *weights*, prunes all-zero rows and columns, transposes
    to rows <= columns and runs the per-row Dijkstra sweep of the
    pure-Python solver with its column scan as array operations.
    Returns ``(working matrix, matched row per working column (1-based,
    0 = free), kept-row mask, kept-column mask, transposed)``, or
    ``None`` when nothing can be matched.
    """
    if np is None:  # pragma: no cover - exercised on numpy-less installs
        raise RuntimeError("numpy is not installed")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError("weight matrix must be 2-dimensional")
    n, m = weights.shape
    if n == 0 or m == 0:
        return None
    if weights.min() < 0:
        raise ValueError("weights must be non-negative")

    # Drop all-zero rows and columns: a zero row can only add weight 0 to
    # any assignment, and removing it frees its column for other rows, so
    # the optimum over the pruned matrix equals the original optimum.
    row_any = weights.any(axis=1)
    col_any = weights.any(axis=0)
    if not row_any.all() or not col_any.all():
        weights = weights[np.ix_(row_any, col_any)]
        n, m = weights.shape
        if n == 0 or m == 0:
            return None

    # Work on the transposed matrix if needed so rows <= cols.
    transposed = n > m
    if transposed:
        weights = weights.T
        n, m = m, n

    # Convert maximisation to minimisation: cost = max_w - w.
    cost = float(weights.max()) - weights

    INF = float("inf")
    # Potentials; 1-based row indexing internally per the classic formulation.
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    match_col = np.zeros(m + 1, dtype=np.int64)  # column j -> matched row (0 = free)

    # Pad a dummy column 0 in front so indices line up with the 1-based
    # formulation while still allowing whole-row numpy operations.
    padded = np.zeros((n + 1, m + 1))
    padded[1:, 1:] = cost

    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = np.full(m + 1, INF)
        way = np.zeros(m + 1, dtype=np.int64)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            free = ~used
            # Relax minv over all unsettled columns at once.
            cur = padded[i0] - u[i0] - v
            better = free & (cur < minv)
            minv[better] = cur[better]
            way[better] = j0
            # Settle the closest unsettled column.
            candidates = np.where(free, minv, INF)
            j1 = int(candidates.argmin())
            delta = candidates[j1]
            # Update potentials.
            u[match_col[used]] += delta
            v[used] -= delta
            minv[free] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        # Augment along the path.
        while j0 != 0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1

    # Plain lists from here: a dozen scalar reads cost more through
    # numpy than the conversion does.
    return weights.tolist(), match_col[1:].tolist(), row_any, col_any, transposed


def max_weight_assignment_numpy(weights) -> tuple[float, list[tuple[int, int]]]:
    """Maximum-weight assignment score and its (row, col) pairs, numpy.

    Zero-weight pairs are omitted, as in the pure-Python solver.

    Parameters
    ----------
    weights:
        2-D array of shape (n, m) with non-negative entries; entry (i, j)
        is the weight of matching row element i to column element j.
    """
    solved = _solve_numpy(weights)
    if solved is None:
        return 0.0, []
    cells, matched, row_any, col_any, transposed = solved
    row_ids = np.flatnonzero(col_any if transposed else row_any).tolist()
    col_ids = np.flatnonzero(row_any if transposed else col_any).tolist()
    total = 0.0
    pairs: list[tuple[int, int]] = []
    for j, i in enumerate(matched):
        if i and cells[i - 1][j] > 0.0:
            total += cells[i - 1][j]
            # Working rows are original columns after a transposition.
            original = (row_ids[i - 1], col_ids[j])
            pairs.append(original[::-1] if transposed else original)
    pairs.sort()
    return total, pairs


def hungarian_max_weight_numpy(weights) -> float:
    """Maximum-weight assignment score, numpy-vectorised inner loop.

    The score of :func:`max_weight_assignment_numpy` without building
    the pairs (verification calls this once per surviving candidate);
    both sum the matched weights in working-column order.
    """
    solved = _solve_numpy(weights)
    if solved is None:
        return 0.0
    cells, matched = solved[:2]
    total = 0.0
    for j, i in enumerate(matched):
        if i:
            total += cells[i - 1][j]
    return total


def max_weight_assignment(weights) -> tuple[float, list[tuple[int, int]]]:
    """Maximum-weight assignment score and its (row, col) pairs.

    Dispatches to the numpy-vectorised solver when numpy is installed,
    and to the pure-Python solver otherwise; both produce identical
    scores.  Zero-weight pairs are omitted: they never change the score
    and a maximum matching containing them always has an equal-score
    sibling without them.
    """
    if np is not None:
        return max_weight_assignment_numpy(weights)
    return max_weight_assignment_python(weights)


def hungarian_max_weight(weights) -> float:
    """Maximum-weight assignment score for a non-negative weight matrix.

    The score half of :func:`max_weight_assignment`.  Callers that
    already know which compute backend they run under (the verification
    stage) call the variant directly.
    """
    return max_weight_assignment(weights)[0]


def scipy_max_weight(weights) -> float:
    """Maximum-weight assignment via scipy, for cross-checking only."""
    from scipy.optimize import linear_sum_assignment

    weights = np.asarray(weights, dtype=np.float64)
    if weights.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(weights, maximize=True)
    return float(weights[rows, cols].sum())
