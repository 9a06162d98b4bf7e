"""Independent reference implementations used only as test oracles.

Everything here is written from scratch with plain Python loops and a
different algorithmic route than the package, so an implementation bug
cannot hide behind a shared helper.  The one exception is
``dijkstra_by_id``: it keeps the string-keyed Dijkstra the warehouse
module once used, as the exact oracle for its tie-breaking.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from bdmtsp.assignment import Assignment
from bdmtsp.core import BdmtspError, ScheduleError


def law_of_cosines_km(lat1, lon1, lat2, lon2, radius=6378.4):
    """Great-circle distance via the spherical law of cosines."""
    p1 = math.radians(lat1)
    p2 = math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return radius * math.acos(max(-1.0, min(1.0, c)))


def floyd_warshall(node_ids, edges):
    """All-pairs shortest paths on an undirected weighted graph.

    ``edges``: iterable of (a, b, w).  Returns dist[a][b] dictionaries.
    """
    dist = {a: {b: math.inf for b in node_ids} for a in node_ids}
    for a in node_ids:
        dist[a][a] = 0.0
    for a, b, w in edges:
        if w < dist[a][b]:
            dist[a][b] = w
            dist[b][a] = w
    for k in node_ids:
        for i in node_ids:
            dik = dist[i][k]
            if math.isinf(dik):
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in node_ids:
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return dist


def descend_least_squares(X, y, tol=1e-13, max_iter=500_000):
    """Least squares by plain gradient descent with a Lipschitz step.

    Only suitable for small, reasonably conditioned systems; that is all
    the oracle needs.
    """
    rows = len(X)
    cols = len(X[0])
    # power iteration for the largest eigenvalue of X^T X
    v = [1.0] * cols
    for _ in range(200):
        w = [0.0] * cols
        for r in range(rows):
            xr = X[r]
            s = sum(xr[c] * v[c] for c in range(cols))
            for c in range(cols):
                w[c] += s * xr[c]
        norm = math.sqrt(sum(t * t for t in w))
        if norm == 0:
            break
        v = [t / norm for t in w]
    lam = norm if norm else 1.0
    step = 1.0 / lam

    b = [0.0] * cols
    for _ in range(max_iter):
        grad = [0.0] * cols
        for r in range(rows):
            xr = X[r]
            resid = sum(xr[c] * b[c] for c in range(cols)) - y[r]
            for c in range(cols):
                grad[c] += resid * xr[c]
        gnorm = math.sqrt(sum(g * g for g in grad))
        if gnorm < tol:
            break
        for c in range(cols):
            b[c] -= step * grad[c]
    return b


def static_closest_vehicle(dist, depot, m, cap):
    """Full-visibility closest-vehicle dispatch with stop budgets.

    ``dist`` is any full matrix indexable as dist[i][j].  Rounds of
    greedy global-minimum picks; within a round each vehicle and each
    customer is used at most once; ties go to the lowest (vehicle,
    customer) pair in scan order.  Returns the list of routes.
    """
    n = len(dist)
    unserved = [i for i in range(n) if i != depot]
    pos = [depot] * m
    used = [0] * m
    routes = [[depot] for _ in range(m)]
    while unserved:
        active = [k for k in range(m) if used[k] < cap]
        count = min(len(active), len(unserved))
        taken_vehicles = []
        taken_customers = []
        for _ in range(count):
            best = None
            for k in active:
                if k in taken_vehicles:
                    continue
                for c in unserved:
                    if c in taken_customers:
                        continue
                    w = dist[pos[k]][c]
                    if best is None or w < best[0]:
                        best = (w, k, c)
            _, k, c = best
            taken_vehicles.append(k)
            taken_customers.append(c)
            routes[k].append(c)
            pos[k] = c
            used[k] += 1
        for c in taken_customers:
            unserved.remove(c)
    return routes


def nearest_neighbour_walk(dist, start, targets):
    """Greedy nearest-neighbour open walk over ``targets`` from ``start``."""
    pos = start
    todo = list(targets)
    total = 0.0
    while todo:
        best = min(todo, key=lambda c: dist[pos][c])
        total += dist[pos][best]
        pos = best
        todo.remove(best)
    return total


def dijkstra_by_id(node_ids, edges, source):
    """Full shortest-path tree from ``source`` with string node keys.

    The heap holds (distance, node id) pairs, so distance ties pop in id
    order; neighbours are relaxed in edge order and a label changes only
    on a strictly shorter distance.  Returns (dist, prev) dictionaries.
    """
    adjacency = {nid: [] for nid in node_ids}
    for a, b, w in edges:
        adjacency[a].append((b, w))
        adjacency[b].append((a, w))
    dist = {source: 0.0}
    prev = {}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, cur = heapq.heappop(heap)
        if cur in done:
            continue
        done.add(cur)
        for nbr, w in adjacency[cur]:
            nd = d + w
            if nd < dist.get(nbr, math.inf):
                dist[nbr] = nd
                prev[nbr] = cur
                heapq.heappush(heap, (nd, nbr))
    return dist, prev


def walk_from_tree(prev, source, target):
    """The source-target node walk a predecessor map encodes."""
    walk = [target]
    while walk[-1] != source:
        walk.append(prev[walk[-1]])
    return tuple(reversed(walk))


def brute_force_assignment(cost) -> Assignment:
    """Exhaustive minimum-cost matching for small matrices (min side <= 8).

    Enumerates all maximal matchings; ties keep the first hit in
    lexicographic enumeration order, so only the cost is contractual.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.size == 0:
        raise BdmtspError("cost matrix must be 2D and nonempty")
    nr, nc = c.shape
    if min(nr, nc) > 8:
        raise BdmtspError("brute force limited to min(rows, cols) <= 8")
    best_pairs = None
    best_cost = math.inf
    if nr <= nc:
        for cols in itertools.permutations(range(nc), nr):
            total = sum(c[r, j] for r, j in enumerate(cols))
            if total < best_cost:
                best_cost = total
                best_pairs = tuple((r, j) for r, j in enumerate(cols))
    else:
        for rows in itertools.permutations(range(nr), nc):
            total = sum(c[r, j] for j, r in enumerate(rows))
            if total < best_cost:
                best_cost = total
                best_pairs = tuple(sorted((r, j) for j, r in enumerate(rows)))
    # Recompute with fsum so the reported cost does not depend on the
    # enumeration order the winning matching happened to be summed in.
    return Assignment(
        pairs=best_pairs, cost=math.fsum(c[r, j] for r, j in best_pairs)
    )


def nominal_step_counts(targets, m, n):
    """Visible counts of a variable schedule under nominal service.

    Each step reveals min(target, unserved) customers and serves
    min(m, visible) of them.  Raises ``ScheduleError`` when the targets
    run out before all n - 1 customers are served.
    """
    remaining = n - 1
    counts = []
    step = 0
    while remaining > 0:
        if step >= len(targets):
            raise ScheduleError(
                "variable dynamics sequence exhausted before all customers revealed"
            )
        visible = min(targets[step], remaining)
        counts.append(visible)
        remaining -= min(m, visible)
        step += 1
    return tuple(counts)
