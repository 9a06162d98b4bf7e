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
operations give the same pairs and the same cost bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BdmtspError

__all__ = ["Assignment", "solve_assignment"]


@dataclass(frozen=True)
class Assignment:
    """Matched (row, column) pairs, sorted by row, plus their total cost."""

    pairs: tuple[tuple[int, int], ...]
    cost: float


def _prepare(cost) -> np.ndarray:
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.size == 0:
        raise BdmtspError("cost matrix must be 2D and nonempty")
    if not np.isfinite(c).all():
        raise BdmtspError("cost entries must be finite")
    return c


def _augmenting_paths(c: list[list[float]]) -> list[int]:
    # Requires len(c) <= len(c[0]).  Returns col4row.
    nr, nc = len(c), len(c[0])
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
            index = -1
            row = c[i]
            ui = u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                s = shortest[j]
                if r < s:
                    shortest[j] = s = r
                    path[j] = i
                if s < lowest:
                    lowest = s
                    index = it
            min_val = lowest
            j = remaining.pop(index)
            done_cols.append(j)
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]

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


def solve_assignment(cost) -> Assignment:
    """Minimum-cost matching of cardinality min(rows, cols)."""
    c = _prepare(cost)
    nr, nc = c.shape
    rows = c.tolist()
    if nr <= nc:
        col4row = _augmenting_paths(rows)
        pairs = tuple(enumerate(col4row))
    else:
        col4row = _augmenting_paths(c.T.tolist())
        pairs = tuple(sorted((r, j) for j, r in enumerate(col4row)))
    # fsum: exactly rounded, so equal matchings report bit-equal costs.
    total = math.fsum(rows[r][col] for r, col in pairs)
    return Assignment(pairs=pairs, cost=total)
