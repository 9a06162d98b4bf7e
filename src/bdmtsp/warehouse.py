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
from typing import Iterable, Sequence

import numpy as np

from .core import BdmtspError, ParseError, RoutingInstance

__all__ = [
    "AisleSpec",
    "WarehouseNetwork",
    "TransferJob",
    "shortest_path",
    "shortest_path_route",
    "transfer_jobs",
    "jobs_to_instance",
    "expand_route",
    "grid_network",
    "occupancy",
    "parse_layout",
    "dump_layout",
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

    def rank_of(self, node: str) -> int:
        try:
            return self.rank[node]
        except KeyError:
            raise BdmtspError(f"unknown node {node!r}") from None


@dataclass(frozen=True)
class TransferJob:
    """One pallet move between two storage locations."""

    id: str
    source: str
    dest: str
    internal_len: float

    def __post_init__(self) -> None:
        if self.source == self.dest:
            raise BdmtspError(f"job {self.id}: source equals destination")
        if not (self.internal_len > 0) or not math.isfinite(self.internal_len):
            raise BdmtspError(f"job {self.id}: internal length must be positive")


def _dijkstra(
    net: WarehouseNetwork, source: int, target: int | None = None
) -> tuple[list[float], list[int]]:
    """Shortest-path labels and predecessors from rank ``source``.

    Stops once ``target`` is popped: popped labels are final, so its
    distance and predecessor chain already equal the full tree's.
    """
    adjacency = net.ranked_adjacency
    dist = [math.inf] * len(adjacency)
    prev = [-1] * len(adjacency)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, cur = heapq.heappop(heap)
        if d > dist[cur]:
            continue  # stale entry: cur was popped with a shorter label
        if cur == target:
            break
        for nbr, w in adjacency[cur]:
            nd = d + w
            if nd < dist[nbr]:
                dist[nbr] = nd
                prev[nbr] = cur
                heapq.heappush(heap, (nd, nbr))
    return dist, prev


def shortest_path(net: WarehouseNetwork, a: str, b: str) -> float:
    """Length of a shortest a-b path in meters."""
    target = net.rank_of(b)
    dist, _ = _dijkstra(net, net.rank_of(a), target)
    return dist[target]


def shortest_path_route(net: WarehouseNetwork, a: str, b: str) -> tuple[tuple[str, ...], float]:
    """One shortest a-b path as a node walk plus its length."""
    source, target = net.rank_of(a), net.rank_of(b)
    dist, prev = _dijkstra(net, source, target)
    walk = [target]
    while walk[-1] != source:
        walk.append(prev[walk[-1]])
    ids = net.ranked_ids
    return tuple(ids[r] for r in reversed(walk)), dist[target]


def transfer_jobs(
    net: WarehouseNetwork, triples: Iterable[tuple[str, str, str]]
) -> tuple[TransferJob, ...]:
    """Build jobs from (id, source, dest) triples, computing internal legs."""
    jobs = []
    for job_id, source, dest in triples:
        length = shortest_path(net, source, dest)
        jobs.append(TransferJob(id=str(job_id), source=source, dest=dest, internal_len=length))
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
    # row and column 0 are the depot
    ends = [net.rank_of(depot)] + [net.rank_of(job.source) for job in jobs]
    starts = [ends[0]] + [net.rank_of(job.dest) for job in jobs]
    mat = np.zeros((len(ends), len(ends)))
    for j, start in enumerate(starts):
        dist, _ = _dijkstra(net, start)
        if j and abs(dist[ends[j]] - jobs[j - 1].internal_len) > 1e-9:
            job = jobs[j - 1]
            raise BdmtspError(
                f"job {job.id}: internal length {job.internal_len} does not match "
                f"the network shortest path"
            )
        row = [dist[end] for end in ends]
        row[j] = 0.0
        mat[j] = row

    instance = RoutingInstance(name=f"warehouse-{len(jobs)}jobs", dist=mat)
    internal_total = float(sum(job.internal_len for job in jobs))
    return instance, internal_total


def expand_route(
    net: WarehouseNetwork,
    jobs: Sequence[TransferJob],
    depot: str,
    route: Sequence[int],
    closed: bool = True,
) -> tuple[tuple[str, ...], float]:
    """Expand a logical job route back to a storage-location walk.

    ``route`` uses instance indexing (0 = depot, k = jobs[k-1]) and must
    start at the depot.  Returns the full walk and its length, which by
    construction equals the between-jobs length plus the internal legs.
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
        inside, d2 = shortest_path_route(net, job.source, job.dest)
        walk.extend(approach[1:])
        walk.extend(inside[1:])
        total += d1 + d2
        pos = job.dest
    if closed:
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
                    w = math.hypot(pa[0] - pb[0], pa[1] - pb[1])
                edges.append((a, b, w))
            else:
                raise ValueError("unrecognised record")
        except (ValueError, KeyError) as exc:
            raise ParseError(f"layout line {lineno}: {raw.strip()!r} ({exc})") from None
    try:
        return WarehouseNetwork(nodes=tuple(nodes), edges=tuple(edges))
    except ParseError:
        raise
    except BdmtspError as exc:
        raise ParseError(f"invalid layout: {exc}") from None


def dump_layout(net: WarehouseNetwork) -> str:
    lines = [f"node {nid} {x:g} {y:g}" for nid, x, y in net.nodes]
    lines += [f"edge {a} {b} {w:g}" for a, b, w in net.edges]
    return "\n".join(lines) + "\n"


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
