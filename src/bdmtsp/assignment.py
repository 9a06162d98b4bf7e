"""Minimum-cost rectangular assignment.

Solves min-cost bipartite matching on an m x d cost matrix with
cardinality min(m, d): every row is matched when m <= d, every column
when m > d.  The solver is a shortest-augmenting-path method with dual
potentials.  Ties are broken deterministically by scanning columns in
ascending index order with strict comparisons, so on a single-column
matrix the lowest-indexed minimal row wins; callers rely on that.

The loop (D. F. Crouse, IEEE TAES 2016) runs on Python lists, not numpy
scalars, and evaluates every reduced cost as
``min_val + c[i][j] - u[i] - v[j]`` in that order: the same IEEE double
operations give the same pairs on every platform.

``solve_assignment`` takes either a list of equal-length rows of Python
numbers, used as it is (the small step blocks of the dispatch loop), or
anything numpy turns into a 2D real array.  A single row needs no
search: its reduced costs are ``0.0 + c - 0.0 - 0.0``, that is
``0.0 + c``, and the search keeps the first minimal column, exactly as
``min`` does.  Only the matched pairs are returned, sorted by row; a
caller that wants the matching's cost sums its entries.
"""

from __future__ import annotations

import math

import numpy as np

from .core import BdmtspError

__all__ = ["solve_assignment"]


def _rows(cost) -> list:
    """``cost`` as equal-length rows of finite Python numbers."""
    if type(cost) is list:
        try:
            nc = len(cost[0])
            total = sum(map(sum, cost))
            # A nan or inf entry always makes the sum non-finite, so a
            # finite sum proves every entry finite; a sum that overflows
            # on finite entries falls through to the per-entry check.
            if (
                nc
                and all(len(row) == nc for row in cost)
                and type(total) in (float, int)
                and math.isfinite(total)
            ):
                return cost
        except (IndexError, TypeError, OverflowError):
            pass
    try:
        c = np.asarray(cost)
    except ValueError:  # ragged rows
        raise BdmtspError("cost matrix must be 2D and nonempty") from None
    if c.ndim != 2 or c.size == 0:
        raise BdmtspError("cost matrix must be 2D and nonempty")
    if c.dtype.kind not in "biuf":
        raise BdmtspError("cost entries must be real numbers")
    c = c.astype(float, copy=False)
    if not np.isfinite(c).all():
        raise BdmtspError("cost entries must be finite")
    return c.tolist()


def _augmenting_paths(c) -> list[int]:
    # Requires len(c) <= len(c[0]).  Returns col4row.
    nr, nc = len(c), len(c[0])
    if nr == 1:
        # The search's reduced costs are 0.0 + c - 0.0 - 0.0, that is
        # 0.0 + c, and its strict < keeps the first minimal column.
        row = [0.0 + x for x in c[0]]
        return [min(range(nc), key=row.__getitem__)]
    inf = math.inf
    u = [0.0] * nr
    v = [0.0] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc

    for cur_row in range(nr):
        shortest = [inf] * nc
        path = [-1] * nc
        tree_rows = []  # rows reached by this search, in visit order
        done_cols = []  # columns settled by this search, in settle order
        remaining = list(range(nc))
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            tree_rows.append(i)
            lowest = inf
            jmin = remaining[-1]  # kept only if every distance overflowed
            row = c[i]
            ui = u[i]
            for j in remaining:
                r = min_val + row[j] - ui - v[j]
                s = shortest[j]
                if r < s:
                    shortest[j] = s = r
                    path[j] = i
                if s < lowest:
                    lowest = s
                    jmin = j
            min_val = lowest
            remaining.remove(jmin)
            done_cols.append(jmin)
            if row4col[jmin] == -1:
                sink = jmin
            else:
                i = row4col[jmin]

        # Each dual changes once, so the update order does not matter.
        u[cur_row] += min_val
        for ip in tree_rows[1:]:
            u[ip] += min_val - shortest[col4row[ip]]
        for jp in done_cols:
            v[jp] -= min_val - shortest[jp]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


def solve_assignment(cost) -> tuple[tuple[int, int], ...]:
    """Minimum-cost matching of cardinality min(rows, cols).

    Returns the matched (row, column) pairs, sorted by row.  Raises
    ``BdmtspError`` for a ragged, empty, non-numeric or non-finite
    matrix.
    """
    rows = _rows(cost)
    if len(rows) <= len(rows[0]):
        return tuple(enumerate(_augmenting_paths(rows)))
    col4row = _augmenting_paths(list(zip(*rows)))
    return tuple(sorted((r, j) for j, r in enumerate(col4row)))
