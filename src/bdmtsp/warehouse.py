"""Warehouse transfer-job routing.

Pallet transfer jobs (move a load from a source storage location to a
destination) become logical nodes of an asymmetric routing instance:
travelling "from job j to job k" means driving from j's destination to
k's source.  The source->destination leg inside each job is mandatory
regardless of job order, so it is excluded from the routing objective
and reported separately as internal length.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .core import BdmtspError, ParseError, RoutingInstance, _euclid, _sum_left

__all__ = [
    "AisleSpec",
    "WarehouseNetwork",
    "TransferJob",
    "shortest_path_route",
    "transfer_jobs",
    "jobs_to_instance",
    "expand_route",
    "grid_network",
    "occupancy",
    "parse_layout",
    "parse_jobs_csv",
]


@dataclass(frozen=True)
class WarehouseNetwork:
    """Undirected storage-location network with metric edge lengths."""

    nodes: tuple[tuple[str, float, float], ...]  # (id, x, y)
    edges: tuple[tuple[str, str, float], ...]  # (a, b, length)

    def __post_init__(self) -> None:
        ids = [node_id for node_id, _, _ in self.nodes]
        if len(ids) != len(set(ids)):
            raise BdmtspError("duplicate node ids in network")
        if not ids:
            raise BdmtspError("network needs at least one node")
        known = set(ids)
        for a, b, w in self.edges:
            if a not in known or b not in known:
                raise BdmtspError(f"edge ({a}, {b}) references unknown node")
            if a == b:
                raise BdmtspError("self-loop edges are not allowed")
            if not (w > 0) or not math.isfinite(w):
                raise BdmtspError("edge lengths must be positive and finite")
        # connectivity (single component) is part of the contract
        adjacency = self.ranked_adjacency
        start = self.rank[ids[0]]
        seen = [False] * len(adjacency)
        seen[start] = True
        frontier = [start]
        while frontier:
            for nbr, _ in adjacency[frontier.pop()]:
                if not seen[nbr]:
                    seen[nbr] = True
                    frontier.append(nbr)
        if not all(seen):
            missing = [nid for nid, hit in zip(self.ranked_ids, seen) if not hit][:5]
            raise BdmtspError(f"network is disconnected (e.g. {missing})")

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(nid for nid, _, _ in self.nodes)

    @cached_property
    def ranked_ids(self) -> tuple[str, ...]:
        """Node ids in sorted order; a node's rank is its index here.

        Comparing ranks orders nodes exactly as comparing ids does, so a
        Dijkstra heap keyed on ranks breaks distance ties the same way.
        """
        return tuple(sorted(self.node_ids))

    @cached_property
    def rank(self) -> dict[str, int]:
        return {nid: r for r, nid in enumerate(self.ranked_ids)}

    @cached_property
    def ranked_adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per rank, the (neighbour rank, length) pairs in edge order."""
        adj: list[list[tuple[int, float]]] = [[] for _ in self.ranked_ids]
        rank = self.rank
        for a, b, w in self.edges:
            adj[rank[a]].append((rank[b], w))
            adj[rank[b]].append((rank[a], w))
        return tuple(tuple(v) for v in adj)

    @cached_property
    def contracted_adjacency(self) -> tuple[tuple, tuple, tuple[int, ...]]:
        """``ranked_adjacency`` with the leaves split off, for ``_dijkstra``.

        A leaf has exactly one distinct neighbour, its parent, and the
        parent has more than one (so a 2-node network has no leaves).
        Returns, per rank, the (parent, length) pair if the rank is a
        leaf, else None; per rank, the non-leaf neighbour pairs in edge
        order; and the leaf ranks.  Over parallel edges a leaf keeps the
        shortest (first of equals).  Every pair is an object of
        ``ranked_adjacency``.
        """
        adjacency = self.ranked_adjacency
        degree = [len({nbr for nbr, _ in pairs}) for pairs in adjacency]
        parent = tuple(
            min(pairs, key=itemgetter(1)) if degree[r] == 1 and degree[pairs[0][0]] > 1 else None
            for r, pairs in enumerate(adjacency)
        )
        core = tuple(tuple(p for p in pairs if parent[p[0]] is None) for pairs in adjacency)
        return parent, core, tuple(r for r, up in enumerate(parent) if up)

    def rank_of(self, node: str) -> int:
        try:
            return self.rank[node]
        except KeyError:
            raise BdmtspError(f"unknown node {node!r}") from None


@dataclass(frozen=True)
class TransferJob:
    """One pallet move between two storage locations.

    ``walk`` is the storage-location walk of the move, from ``source`` to
    ``dest``, and ``internal_len`` its length.  ``transfer_jobs`` takes
    both from one shortest-path run, and ``expand_route`` splices the walk
    into each route as it is, so a route's inside legs run no search.
    """

    id: str
    source: str
    dest: str
    internal_len: float
    walk: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.source == self.dest:
            raise BdmtspError(f"job {self.id}: source equals destination")
        if not (self.internal_len > 0) or not math.isfinite(self.internal_len):
            raise BdmtspError(f"job {self.id}: internal length must be positive")
        if not self.walk or self.walk[0] != self.source or self.walk[-1] != self.dest:
            raise BdmtspError(f"job {self.id}: walk must run from source to destination")


def _dijkstra(
    net: WarehouseNetwork, source: int, targets: Sequence[int] | None = None
) -> tuple[list[float], list[int]]:
    """Shortest-path labels and predecessors from rank ``source``.

    Only non-leaf ranks enter the heap (see ``contracted_adjacency``).
    A leaf source seeds its parent with ``0.0 + w``; once the heap is
    done, each leaf (all of them for a full tree, else just the leaves
    among ``targets``) gets its parent's label plus ``w``, and the parent
    as predecessor.  That is the plain Dijkstra's tree bit for bit: float
    addition is monotone and ``fl(x + w) >= x`` for ``w > 0``, so a
    relaxation out of a leaf (back to its parent, the only neighbour)
    never strictly improves a label, and the heap entries dropped here
    could never set a label or a predecessor.  Non-leaf ranks pop in the
    same ``(d, rank)`` order and relax their neighbours in the same edge
    order, and over parallel edges ``d + min(w)`` is the smallest sum.

    With ``targets`` (duplicates and ``source`` allowed) the run stops
    once every target, or a leaf target's parent, has popped: popped
    labels are final, so each target's distance and predecessor chain
    already equal the full tree's.  Other ranks' entries are then
    partial.  ``None`` runs the full tree.
    """
    parent, core, leaves = net.contracted_adjacency
    dist = [math.inf] * len(core)
    prev = [-1] * len(core)
    dist[source] = 0.0
    if targets is None:
        waiting: set[int] = set()  # never met, so the heap runs dry
    else:
        waiting = {parent[t][0] if parent[t] else t for t in targets if t != source}
        if not waiting:
            return dist, prev
    if parent[source]:
        top, w = parent[source]
        dist[top] = 0.0 + w
        prev[top] = source
        heap = [(dist[top], top)]
    else:
        heap = [(0.0, source)]
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        d, cur = heappop(heap)
        if d > dist[cur]:
            continue  # stale entry: cur was popped with a shorter label
        if cur in waiting:
            waiting.remove(cur)
            if not waiting:
                break
        for nbr, w in core[cur]:
            nd = d + w
            if nd < dist[nbr]:
                dist[nbr] = nd
                prev[nbr] = cur
                heappush(heap, (nd, nbr))
    for leaf in leaves if targets is None else targets:
        up = parent[leaf]
        if up and leaf != source:
            dist[leaf] = dist[up[0]] + up[1]
            prev[leaf] = up[0]
    return dist, prev


def shortest_path_route(net: WarehouseNetwork, a: str, b: str) -> tuple[tuple[str, ...], float]:
    """One shortest a-b path as a node walk plus its length.

    Raises ``BdmtspError`` if the predecessor chain breaks (a -1) or
    repeats a node before it reaches ``a``.
    """
    source, target = net.rank_of(a), net.rank_of(b)
    dist, prev = _dijkstra(net, source, (target,))
    walk = [target]
    while walk[-1] != source:
        up = prev[walk[-1]]
        # a walk of len(prev) nodes that has not reached a holds a cycle
        if up < 0 or len(walk) == len(prev):
            raise BdmtspError(f"no predecessor chain from {b!r} back to {a!r}")
        walk.append(up)
    ids = net.ranked_ids
    return tuple(ids[r] for r in reversed(walk)), dist[target]


def transfer_jobs(
    net: WarehouseNetwork, triples: Iterable[tuple[str, str, str]]
) -> tuple[TransferJob, ...]:
    """Build jobs from (id, source, dest) triples, computing internal legs.

    Each job keeps the walk and length of its own source->dest run.
    """
    jobs = []
    for job_id, source, dest in triples:
        walk, length = shortest_path_route(net, source, dest)
        jobs.append(
            TransferJob(id=str(job_id), source=source, dest=dest, internal_len=length, walk=walk)
        )
    return tuple(jobs)


def jobs_to_instance(
    net: WarehouseNetwork, jobs: Sequence[TransferJob], depot: str
) -> tuple[RoutingInstance, float]:
    """Asymmetric routing instance over logical job nodes.

    Node 0 is the depot; node k >= 1 is jobs[k-1].  The entry (j, k) is
    the shortest path from j's destination (or the depot) to k's source
    (or the depot).  Internal source->dest legs are summed into the
    second return value and excluded from the matrix.
    """
    if not jobs:
        raise BdmtspError("need at least one transfer job")
    # row j leaves where job j ends, column k arrives where job k starts;
    # row and column 0 are the depot.  Jobs that end at one node share a
    # row of labels, so each distinct start runs once, up to every end.
    ends = [net.rank_of(depot)] + [net.rank_of(job.source) for job in jobs]
    starts = [ends[0]] + [net.rank_of(job.dest) for job in jobs]
    rows: dict[int, list[float]] = {}
    mat = np.zeros((len(ends), len(ends)))
    for j, start in enumerate(starts):
        if start not in rows:
            dist, _ = _dijkstra(net, start, ends)
            rows[start] = [dist[end] for end in ends]
        row = rows[start]
        if j and not math.isclose(row[j], jobs[j - 1].internal_len, rel_tol=1e-9, abs_tol=1e-9):
            job = jobs[j - 1]
            raise BdmtspError(
                f"job {job.id}: internal length {job.internal_len} does not match "
                f"the network shortest path"
            )
        mat[j] = row
        mat[j, j] = 0.0

    instance = RoutingInstance(name=f"warehouse-{len(jobs)}jobs", dist=mat)
    internal_total = _sum_left(job.internal_len for job in jobs)
    return instance, internal_total


def expand_route(
    net: WarehouseNetwork,
    jobs: Sequence[TransferJob],
    depot: str,
    route: Sequence[int],
) -> tuple[tuple[str, ...], float]:
    """Expand a logical job route back to a closed storage-location walk.

    ``route`` uses instance indexing (0 = depot, k = jobs[k-1]) and must
    start at the depot; the walk ends back at the depot.  Returns the
    full walk and its length, which by construction equals the closed
    between-jobs length plus the internal legs.  The legs between jobs
    are searched here; each job's inside leg is its own ``walk`` and
    ``internal_len``.
    """
    if not route or route[0] != 0:
        raise BdmtspError("route must start at the depot node 0")
    walk: list[str] = [depot]
    total = 0.0
    pos = depot
    for idx in route[1:]:
        if not 1 <= idx <= len(jobs):
            raise BdmtspError(f"route index {idx} out of range")
        job = jobs[idx - 1]
        approach, d1 = shortest_path_route(net, pos, job.source)
        walk.extend(approach[1:])
        walk.extend(job.walk[1:])
        total += d1 + job.internal_len
        pos = job.dest
    back, d3 = shortest_path_route(net, pos, depot)
    walk.extend(back[1:])
    total += d3
    return tuple(walk), total


@dataclass(frozen=True)
class AisleSpec:
    """Geometry knobs for synthetic rectilinear layouts."""

    dx: float = 2.0
    dy: float = 2.0
    shelf_len: float = 0.0

    def __post_init__(self) -> None:
        if self.dx <= 0 or self.dy <= 0 or self.shelf_len < 0:
            raise BdmtspError("aisle spacing must be positive, shelf length >= 0")


def grid_network(rows: int, cols: int, aisle_spec: AisleSpec | None = None) -> WarehouseNetwork:
    """Rectilinear aisle grid, optionally with one shelf node per corner.

    Aisle nodes "a{r}.{c}" sit on a rows x cols lattice joined along both
    axes; when ``shelf_len`` > 0, each aisle node gains a shelf stub
    "s{r}.{c}".  Node and edge counts follow the obvious closed forms.
    """
    spec = aisle_spec or AisleSpec()
    if rows < 1 or cols < 1:
        raise BdmtspError("rows and cols must be >= 1")
    if rows * cols < 2:
        raise BdmtspError("grid needs at least two nodes")
    nodes: list[tuple[str, float, float]] = []
    edges: list[tuple[str, str, float]] = []
    for r in range(rows):
        for c in range(cols):
            nodes.append((f"a{r}.{c}", c * spec.dx, r * spec.dy))
            if spec.shelf_len > 0:
                nodes.append((f"s{r}.{c}", c * spec.dx, r * spec.dy + 0.4 * spec.dy))
                edges.append((f"a{r}.{c}", f"s{r}.{c}", spec.shelf_len))
    for r in range(rows):
        for c in range(cols - 1):
            edges.append((f"a{r}.{c}", f"a{r}.{c + 1}", spec.dx))
    for c in range(cols):
        for r in range(rows - 1):
            edges.append((f"a{r}.{c}", f"a{r + 1}.{c}", spec.dy))
    return WarehouseNetwork(nodes=tuple(nodes), edges=tuple(edges))


def occupancy(job_count: int, storage_locations: int) -> float:
    """Share of storage locations touched by jobs (#jobs / #locations)."""
    if storage_locations < 1:
        raise BdmtspError("need at least one storage location")
    return job_count / storage_locations


# ------------------------------------------------------------------ io


def parse_layout(text: str) -> WarehouseNetwork:
    """Plain-text layout: ``node <id> <x> <y>`` and ``edge <a> <b> [len]``.

    Blank lines and ``#`` comments are skipped; an omitted edge length
    defaults to the straight-line distance between the node positions.
    """
    nodes: list[tuple[str, float, float]] = []
    edges: list[tuple[str, str, float]] = []
    positions: dict[str, tuple[float, float]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "node" and len(parts) == 4:
                nid, x, y = parts[1], float(parts[2]), float(parts[3])
                nodes.append((nid, x, y))
                positions[nid] = (x, y)
            elif parts[0] == "edge" and len(parts) in (3, 4):
                a, b = parts[1], parts[2]
                if len(parts) == 4:
                    w = float(parts[3])
                else:
                    pa, pb = positions[a], positions[b]
                    w = float(_euclid(pa[0] - pb[0], pa[1] - pb[1]))
                edges.append((a, b, w))
            else:
                raise ValueError("unrecognised record")
        except (ValueError, KeyError) as exc:
            raise ParseError(f"layout line {lineno}: {raw.strip()!r} ({exc})") from None
    try:
        return WarehouseNetwork(nodes=tuple(nodes), edges=tuple(edges))
    except BdmtspError as exc:
        raise ParseError(f"invalid layout: {exc}") from None


def parse_jobs_csv(text: str, net: WarehouseNetwork) -> tuple[TransferJob, ...]:
    """Job list CSV with columns id, source, dest (header required)."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or not {"id", "source", "dest"} <= set(reader.fieldnames):
        raise ParseError("jobs CSV needs columns: id, source, dest")
    triples = []
    for row in reader:
        triples.append((row["id"], row["source"], row["dest"]))
    if not triples:
        raise ParseError("jobs CSV contains no rows")
    return transfer_jobs(net, triples)
