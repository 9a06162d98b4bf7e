"""Minimum-cost rectangular assignment.

Solves min-cost bipartite matching on an m x d cost matrix with
cardinality min(m, d): every row is matched when m <= d, every column
when m > d.  The solver is a shortest-augmenting-path method with dual
potentials.  Ties are broken deterministically by scanning columns in
ascending index order with strict comparisons, so on a single-column
matrix the lowest-indexed minimal row wins; callers rely on that.
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


def _augmenting_paths(c: np.ndarray) -> np.ndarray:
    # Requires nr <= nc.  Returns col4row.
    nr, nc = c.shape
    u = np.zeros(nr)
    v = np.zeros(nc)
    col4row = np.full(nr, -1, dtype=np.intp)
    row4col = np.full(nc, -1, dtype=np.intp)

    for cur_row in range(nr):
        shortest = np.full(nc, np.inf)
        path = np.full(nc, -1, dtype=np.intp)
        on_row_tree = np.zeros(nr, dtype=bool)
        done_col = np.zeros(nc, dtype=bool)
        remaining = list(range(nc))
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            on_row_tree[i] = True
            lowest = np.inf
            index = -1
            for it, j in enumerate(remaining):
                r = min_val + c[i, j] - u[i] - v[j]
                if r < shortest[j]:
                    shortest[j] = r
                    path[j] = i
                if shortest[j] < lowest:
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            j = remaining.pop(index)
            done_col[j] = True
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]

        u[cur_row] += min_val
        for ip in range(nr):
            if on_row_tree[ip] and ip != cur_row:
                u[ip] += min_val - shortest[col4row[ip]]
        for jp in range(nc):
            if done_col[jp]:
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
    if nr <= nc:
        col4row = _augmenting_paths(c)
        pairs = tuple((r, int(col4row[r])) for r in range(nr))
    else:
        col4row = _augmenting_paths(c.T)
        pairs = tuple(sorted((int(col4row[r]), r) for r in range(nc)))
    # fsum: exactly rounded, so equal matchings report bit-equal costs.
    total = math.fsum(c[r, col] for r, col in pairs)
    return Assignment(pairs=pairs, cost=total)
