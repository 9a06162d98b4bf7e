"""Independent reference implementations used only as test oracles.

Everything here is written from scratch with plain Python loops and a
different algorithmic route than the package, so an implementation bug
cannot hide behind a shared helper.  The exceptions are bit-exact
oracles that keep an earlier form of package code: ``distance`` and
``full_matrix`` (the scalar and all-pairs distances routing instances
once exposed; the planar kernel sqrt(dx*dx + dy*dy) of from-node minus
to-node, on Python floats in ``distance`` and as numpy arrays in
``full_matrix``), ``dijkstra_by_id`` (the string-keyed Dijkstra the
warehouse module once used, for its tie-breaking), ``numpy_assignment``
(the assignment loop on numpy scalars, with the ``Assignment`` record
and exactly rounded cost the package once returned), ``closest_pairs``
(the closest-vehicle step as it located picks with ``np.unravel_index``),
``refit_selection`` (backward selection refitting every candidate) and
``expand_by_legs`` (the route expansion that searched every leg, a job's
inside leg included).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from bdmtsp.core import BdmtspError, ScheduleError
from bdmtsp.warehouse import shortest_path_route


def distance(instance, i, j) -> float:
    """Distance from node ``i`` to node ``j`` of a routing instance."""
    if instance.dist is not None:
        return float(instance.dist[i, j])
    (xi, yi), (xj, yj) = instance.coords[[i, j]].tolist()
    dx = xi - xj
    dy = yi - yj
    return math.sqrt(dx * dx + dy * dy)


def full_matrix(instance) -> np.ndarray:
    """All-pairs distances of a routing instance as one dense matrix."""
    if instance.dist is not None:
        return instance.dist
    d = instance.coords[:, None, :] - instance.coords[None, :, :]
    return np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])


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


def expand_by_legs(net, jobs, depot, route):
    """A route's closed walk and length with one search per leg.

    Each job adds its approach and inside lengths as ``d1 + d2``, and the
    closing leg comes last; the walk splices every leg's walk in order.
    """
    walk, total, pos = [depot], 0.0, depot
    for idx in route[1:]:
        job = jobs[idx - 1]
        approach, d1 = shortest_path_route(net, pos, job.source)
        inside, d2 = shortest_path_route(net, job.source, job.dest)
        walk += approach[1:] + inside[1:]
        total += d1 + d2
        pos = job.dest
    back, d3 = shortest_path_route(net, pos, depot)
    return tuple(walk) + back[1:], total + d3


@dataclass(frozen=True)
class Assignment:
    """Matched (row, column) pairs, sorted by row, plus their total cost."""

    pairs: tuple[tuple[int, int], ...]
    cost: float


def matching_cost(cost, pairs) -> float:
    """Exactly rounded total of the matched entries.

    ``fsum`` does not depend on the order of ``pairs``, so equal
    matchings report bit-equal costs.
    """
    c = np.asarray(cost, dtype=float)
    return math.fsum(c[r, j] for r, j in pairs)


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
    return Assignment(pairs=best_pairs, cost=matching_cost(c, best_pairs))


def numpy_augmenting_paths(c: np.ndarray) -> np.ndarray:
    """Shortest-augmenting-path assignment on numpy scalars (requires rows <= cols).

    The loop the package ran before it moved to Python lists: same float
    expressions in the same order, same strict comparisons and column
    scan order, so its pairs and duals are the bit-exact oracle for
    ``bdmtsp.assignment``.  Returns col4row.
    """
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


def numpy_pairs(cost) -> tuple[tuple[int, int], ...]:
    """The pairs ``solve_assignment`` returns, found on numpy scalars.

    Entries near the float range overflow inside the search, as they do
    in the package; the oracle does not warn about it.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.size == 0:
        raise BdmtspError("cost matrix must be 2D and nonempty")
    if not np.isfinite(c).all():
        raise BdmtspError("cost entries must be finite")
    nr, nc = c.shape
    with np.errstate(over="ignore", invalid="ignore"):
        if nr <= nc:
            col4row = numpy_augmenting_paths(c)
            return tuple((r, int(col4row[r])) for r in range(nr))
        col4row = numpy_augmenting_paths(c.T)
    return tuple(sorted((int(col4row[r]), r) for r in range(nc)))


def numpy_assignment(cost) -> Assignment:
    """``solve_assignment`` as it ran on numpy scalars (the list loop's oracle)."""
    pairs = numpy_pairs(cost)
    return Assignment(pairs=pairs, cost=matching_cost(cost, pairs))


def closest_pairs(block) -> tuple[tuple[int, int], ...]:
    """Closest-vehicle picks of one step block, in pick order.

    Repeated global argmin over a numpy copy, located with
    ``np.unravel_index``: ties go to the first flat index in row-major
    order, and a picked row and column are masked for the rest of the
    step.
    """
    work = np.array(block, dtype=float)
    out = []
    for _ in range(min(work.shape)):
        i, j = np.unravel_index(int(np.argmin(work)), work.shape)
        out.append((int(i), int(j)))
        work[i, :] = np.inf
        work[:, j] = np.inf
    return tuple(out)


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


def refit_selection(X, y) -> list[tuple[int, ...]]:
    """Backward-selection subsets from refitting every candidate at every stage.

    The loop ``bdmtsp.cam.backward_select`` ran before it scored
    candidates from one QR per stage: same column scaling, one
    ``lstsq`` refit per candidate, strict ``<`` in column order.
    Returns the retained columns per stage, ascending in size.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    norms = np.linalg.norm(X, axis=0)
    norms[norms == 0] = 1.0
    Xn = X / norms

    current = list(range(X.shape[1]))
    subsets = [tuple(current)]
    while len(current) > 1:
        best_cols = None
        best_sse = math.inf
        for drop in current:
            trial = [c for c in current if c != drop]
            b, *_ = np.linalg.lstsq(Xn[:, trial], y, rcond=None)
            r = y - Xn[:, trial] @ b
            sse = float(r @ r)
            if sse < best_sse:
                best_sse = sse
                best_cols = trial
        current = best_cols
        subsets.append(tuple(current))
    subsets.reverse()
    return subsets
