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
``min`` does.  An array whose longer side has at least ``_WIDE`` entries
(the wide windows of online dispatch) stays an array and is searched a
row at a time with numpy: each search row's reduced costs are one
``((min_val + c[i]) - u[i]) - v`` over every column, the same IEEE
operations in the same order, and ``argmin`` keeps the first minimal
column, as the strict ``<`` of the loop does; so both searches give the
same pairs.  Only the matched pairs are returned, sorted by row; a
caller that wants the matching's cost sums its entries.
"""

from __future__ import annotations

import math

import numpy as np

from .core import BdmtspError

__all__ = ["solve_assignment"]

# Arrays whose longer side has at least this many entries stay arrays for
# the numpy row scan; narrower ones become lists for the Python loop,
# which costs less there than numpy's per-call overhead.  Measured per
# step in process: solve_assignment(submatrix(rows, cols)) over 48
# windows of a uniform 3000-node instance, best of 9, microseconds for
# the list loop / the numpy scan (a 1 x 60 block is a list either way):
#
#   rows \ cols     60      100      120      150      300
#   1            36/36    37/25    38/26    45/28    71/28
#   2            36/49    50/50    58/50    65/50   116/61
#   3            49/64    67/66    80/68   136/123  245/139
#   4            61/83   127/147  112/88   123/88   217/102
#   5            72/93   103/100  118/102  144/107  283/130
#   6            89/149  115/114  163/133  180/134  343/149
#   7           111/173  181/188  254/259  307/267  377/164
#
# The two cost the same between about 100 and 130 columns (a second run
# put it at 120-130), and in-process online-solve avh segments ran
# fastest with 120.
_WIDE = 120


def _rows(cost):
    """``cost`` as equal-length rows of finite Python numbers.

    An array whose longer side reaches ``_WIDE`` is returned as a finite
    float ndarray instead.
    """
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
    return c if max(c.shape) >= _WIDE else c.tolist()


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
            # Never kept: an unmatched column has v = 0 and the search's
            # first row u = 0, so its distance starts at a finite cost and
            # only decreases; it is settled only as the sink.
            jmin = remaining[-1]
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


def _vector_paths(c: np.ndarray) -> list[int]:
    # _augmenting_paths on an array, one numpy expression per search row.
    # Requires rows <= cols.  Returns col4row.
    nr, nc = c.shape
    if nr == 1:
        return [int(c[0].argmin())]
    inf = math.inf
    u = [0.0] * nr
    v = np.zeros(nc)
    col4row = [-1] * nr
    row4col = [-1] * nc
    r = np.empty(nc)
    better = np.empty(nc, dtype=bool)
    # Sums of entries near 1e308 overflow to inf or nan, as in the loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for cur_row in range(nr):
            work = np.full(nc, inf)  # shortest distance; inf once settled
            free = np.ones(nc, dtype=bool)  # columns not yet settled
            path = np.full(nc, -1, dtype=np.intp)
            shortest = {}  # settled column -> its distance, in settle order
            tree_rows = []
            min_val = 0.0
            i = cur_row
            sink = -1
            while sink == -1:
                tree_rows.append(i)
                np.add(c[i], min_val, out=r)
                r -= u[i]
                r -= v
                np.less(r, work, out=better)
                better &= free
                np.copyto(work, r, where=better)
                np.copyto(path, i, where=better)
                # The minimum is below inf (see jmin in _augmenting_paths),
                # so it is never a settled column's inf.
                jmin = int(work.argmin())
                min_val = float(work[jmin])
                free[jmin] = False
                work[jmin] = inf
                shortest[jmin] = min_val
                if row4col[jmin] == -1:
                    sink = jmin
                else:
                    i = row4col[jmin]

            u[cur_row] += min_val
            for ip in tree_rows[1:]:
                u[ip] += min_val - shortest[col4row[ip]]
            v[list(shortest)] -= min_val - np.array(list(shortest.values()))

            j = sink
            while True:
                i = int(path[j])
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
    if type(rows) is list:
        if len(rows) <= len(rows[0]):
            return tuple(enumerate(_augmenting_paths(rows)))
        col4row = _augmenting_paths(list(zip(*rows)))
    elif rows.shape[0] <= rows.shape[1]:
        return tuple(enumerate(_vector_paths(rows)))
    else:
        col4row = _vector_paths(rows.T)
    return tuple(sorted((r, j) for j, r in enumerate(col4row)))
