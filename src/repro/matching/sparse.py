"""Sparse maximum matching: solve only what is ambiguous.

A weight matrix between two sets is almost a permutation: two token
elements without a common token score 0, and so does an edit pair that
cannot clear ``alpha``.  Verification therefore never builds the dense
matrix.  A matrix is its *sparse rows*: per reference element a
``{column: weight}`` dict of the positive cells, and
:func:`sparse_assignment` finds the maximum matching in three exact
steps:

1. If every non-empty row's largest weight sits in a different column,
   that selection *is* the matching: the sum of row maxima bounds any
   matching from above and is attained (an all-zero matrix trivially).
2. Otherwise the positive-weight graph is split into connected
   components, and each component whose row maxima do not collide, or
   that has a single column, is answered the same way.
3. Only the remaining components go, as small dense matrices, to
   :func:`repro.matching.hungarian.hungarian_assignment`.

Unlike the reduction of Section 5.3 this needs no metric: it is exact
for every kind and every ``alpha``.  The result is the matched triples
in the summation order of :func:`~repro.matching.hungarian.matching_total`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from operator import itemgetter
from typing import Sequence

from repro.core.records import SetRecord
from repro.matching.hungarian import Triple, hungarian_assignment
from repro.sim.functions import SimilarityFunction

#: Sparse rows: per row, its positive cells as ``{column: weight}``, in
#: ascending column order -- so a row's pick among equal weights is its
#: lowest column, and the matching a function of the weights alone.
SparseRows = list[dict[int, float]]

_ROW = itemgetter(0)
_COLUMN = itemgetter(1)


def token_rows(
    reference: SetRecord, candidate: SetRecord, phi: SimilarityFunction
) -> SparseRows:
    """Token-kind ``phi_alpha`` weights of two sets as sparse rows.

    One token -> columns map of the candidate serves every reference
    element: ``index_tokens`` is a frozenset, so the number of an
    element's tokens whose column list holds ``j`` is ``|r & s_j|``
    exactly, and the weight is the kind's closed form on the three
    sizes (:meth:`SimilarityFunction.tokens_from_counts`, bit-identical
    to :meth:`SimilarityFunction.tokens`).  Elements without a common
    token score 0 and are never touched -- except the empty/empty pair,
    which every token kind defines as similarity 1.
    """
    by_token: defaultdict[int, list[int]] = defaultdict(list)
    sizes: list[int] = []
    empty_columns: list[int] = []
    for j, s in enumerate(candidate.elements):
        tokens = s.index_tokens
        sizes.append(len(tokens))
        if not tokens:
            empty_columns.append(j)
        for token in tokens:
            by_token[token].append(j)
    score = phi.tokens_from_counts
    lookup = by_token.get
    rows: SparseRows = []
    for r in reference.elements:
        tokens = r.index_tokens
        if not tokens:
            # Similarity 1 clears every alpha.
            rows.append(dict.fromkeys(empty_columns, 1.0))
            continue
        found: list[int] = []
        for token in tokens:
            found += lookup(token, ())
        size = len(tokens)
        # Ascending columns, like every sparse row: the order the tokens
        # came in depends on their ids, which differ between a cluster's
        # shards.  (``found`` is a chain of ascending runs: a cheap sort.)
        found.sort()
        row = {}
        for j, shared in Counter(found).items():
            weight = score(size, sizes[j], shared)
            if weight > 0.0:
                row[j] = weight
        rows.append(row)
    return rows


def column_rows(
    height: int, columns: Sequence[Sequence[tuple[int, float]]]
) -> SparseRows:
    """Sparse rows from per-column ``(row, weight)`` lists of positive cells."""
    rows: SparseRows = [{} for _ in range(height)]
    for j, cells in enumerate(columns):
        for i, weight in cells:
            rows[i][j] = weight
    return rows


def sparse_assignment(rows: SparseRows) -> list[Triple]:
    """A maximum-weight matching of sparse rows, in summation order."""
    live = [i for i, row in enumerate(rows) if row]
    picks = [max(rows[i], key=rows[i].__getitem__) for i in live]
    if len(set(picks)) == len(picks):
        triples = [(i, j, rows[i][j]) for i, j in zip(live, picks)]
        triples.sort(key=_COLUMN)
        return triples

    by_column: defaultdict[int, list[int]] = defaultdict(list)
    for i in live:
        for j in rows[i]:
            by_column[j].append(i)
    pick_of = dict(zip(live, picks))
    triples = []
    seen: set[int] = set()
    for start in live:
        if start in seen:
            continue
        # One connected component of the positive-weight graph.
        seen.add(start)
        members = [start]
        columns: set[int] = set()
        frontier = [start]
        while frontier:
            for j in rows[frontier.pop()]:
                if j in columns:
                    continue
                columns.add(j)
                for i in by_column[j]:
                    if i not in seen:
                        seen.add(i)
                        members.append(i)
                        frontier.append(i)
        members.sort()
        chosen = [pick_of[i] for i in members]
        if len(set(chosen)) == len(chosen):
            triples += [(i, j, rows[i][j]) for i, j in zip(members, chosen)]
        elif len(columns) == 1:
            j = chosen[0]
            i = max(members, key=lambda i: rows[i][j])
            triples.append((i, j, rows[i][j]))
        else:
            ordered = sorted(columns)
            dense = [[rows[i].get(j, 0.0) for j in ordered] for i in members]
            triples += [
                (members[a], ordered[b], weight)
                for a, b, weight in hungarian_assignment(dense)
            ]
    triples.sort(key=_ROW if len(live) > len(by_column) else _COLUMN)
    return triples
