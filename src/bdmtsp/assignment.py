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
anything numpy turns into a 2D real array.  An array whose longer side
has at least ``_WIDE`` entries (the wide windows of online dispatch)
stays an array and is searched a row at a time with numpy: each search
row's reduced costs are one ``((min_val + c[i]) - u[i]) - v`` over every
column, the same IEEE operations in the same order, and ``argmin`` keeps
the first minimal column, as the strict ``<`` of the loop does; so both
searches give the same pairs.  Only the matched pairs are returned,
sorted by row; a caller that wants the matching's cost sums its entries.

Each row's search starts with one scan of its raw costs in C (``min``
and ``index`` on a list, ``argmin`` on an array).  If that first minimal
column is still unmatched, the row takes it and no search runs, with the
same pairs and duals bit for bit, as long as no column dual ``v`` is
positive.  Two facts make that exact: an unmatched column still has
``v == 0.0``, and with no ``v`` positive no reduced cost of the row's
first scan is below its cost, so the search would settle that column
first, as its sink.  In exact arithmetic no ``v`` ever turns positive,
but rounding can settle a later column at a lower distance than an
earlier one and so push its ``v`` above zero; from then on every row of
that solve runs the search.  This also covers a single row, whose
columns are all free.  A list row whose minimum lies outside
``(-2**53, 2**53)`` always runs the search: there Python's exact int
comparisons and the loop's float ones can order the row differently.
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
    inf = math.inf
    u = [0.0] * nr
    v = [0.0] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc

    exact = True  # no v is positive yet, so the first-scan exit is exact
    for cur_row in range(nr):
        # First scan in C.  While no v is positive, the search below
        # would settle j, the first column of least cost, as its sink on
        # its first scan whenever j is unmatched, and change nothing but
        # u[cur_row] and v[j]:
        # - cur_row is unmatched, so no earlier search reached it, and
        #   u[cur_row] == 0.0: the first scan's reduced cost of column k
        #   is ((0.0 + c[k]) - 0.0) - v[k].
        # - A column enters done_cols only when it gets matched, and it
        #   stays matched, so an unmatched column still has v == 0.0.
        # - No v is positive (a nan v, after an overflow, never compares
        #   below a distance), so by monotone rounding no reduced cost is
        #   below its cost.
        # So j's reduced cost is its cost and every earlier column's is
        # strictly larger.  The search would set u[cur_row] = 0.0 + cost,
        # the same bits as the += here (for -0.0 and ints too), and
        # v[j] -= 0.0, which changes no bit.  Python compares ints and
        # floats exactly but the loop compares the floats they convert
        # to; the two orders agree when the minimum is in (-2**53, 2**53).
        if exact:
            row = c[cur_row]
            lowest = min(row)
            if -2**53 < lowest < 2**53:
                j = row.index(lowest)
                if row4col[j] == -1:
                    u[cur_row] += lowest
                    row4col[j] = cur_row
                    col4row[cur_row] = j
                    continue

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
        # Settled distances never fall in exact arithmetic, but rounding
        # can settle a column below an earlier one, whose v then rises
        # above zero; the first-scan exit is then no longer exact.
        for jp in done_cols:
            v[jp] -= min_val - shortest[jp]
            if v[jp] > 0.0:
                exact = False

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
    inf = math.inf
    u = [0.0] * nr
    v = np.zeros(nc)
    col4row = [-1] * nr
    row4col = [-1] * nc
    r = np.empty(nc)
    better = np.empty(nc, dtype=bool)
    exact = True
    # Sums of entries near 1e308 overflow to inf or nan, as in the loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for cur_row in range(nr):
            # The first scan of _augmenting_paths, on floats only.
            if exact:
                j = int(c[cur_row].argmin())
                if row4col[j] == -1:
                    u[cur_row] += float(c[cur_row, j])
                    row4col[j] = cur_row
                    col4row[cur_row] = j
                    continue
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
            done = list(shortest)
            v[done] -= min_val - np.array(list(shortest.values()))
            if (v[done] > 0.0).any():
                exact = False

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
