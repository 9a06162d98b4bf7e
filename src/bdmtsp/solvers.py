"""Balanced dynamic routing heuristics.

Both solvers share one dispatch loop: at each step the first ``d``
not-yet-served customers of the reveal ordering are visible, every
vehicle below its stop budget is active, and a step policy matches
active vehicles to visible customers.  The closest-vehicle policy picks
globally nearest (vehicle, customer) pairs greedily; the assignment
policy solves a minimum-cost matching per step.  Vehicles that reach
the stop budget stop accepting work, which keeps route sizes balanced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .assignment import solve_assignment
from .core import Fleet, InfeasibleError, RevealSchedule, RoutingInstance

__all__ = [
    "ALGORITHMS",
    "RouteSet",
    "StepTrace",
    "bd_cvh",
    "bd_avh",
    "route_lengths",
    "relative_difference",
]


@dataclass(frozen=True)
class RouteSet:
    """Solver output: one route per vehicle, each starting at the depot."""

    routes: tuple[tuple[int, ...], ...]
    lengths: tuple[float, ...]
    total: float
    closed: bool


@dataclass(frozen=True)
class StepTrace:
    """Instrumentation record for one dispatch step (testing hook)."""

    step: int
    vehicles: tuple[int, ...]
    nodes: tuple[int, ...]
    costs: np.ndarray
    pairs: tuple[tuple[int, int], ...]


def _closest_pairs(block: np.ndarray) -> tuple[tuple[int, int], ...]:
    # Repeated global argmin; ties resolve to the first flat index in
    # row-major order.  Chosen rows/columns are masked within the step.
    work = np.array(block, copy=True)
    count = min(work.shape)
    out = []
    for _ in range(count):
        i, j = np.unravel_index(int(np.argmin(work)), work.shape)
        out.append((int(i), int(j)))
        work[i, :] = np.inf
        work[:, j] = np.inf
    return tuple(out)


def _assignment_pairs(block: np.ndarray) -> tuple[tuple[int, int], ...]:
    return solve_assignment(block).pairs


def _dispatch(
    instance: RoutingInstance,
    fleet: Fleet,
    schedule: RevealSchedule,
    policy: Callable[[np.ndarray], tuple[tuple[int, int], ...]],
    closed: bool,
    on_step,
) -> RouteSet:
    n = instance.n
    m = fleet.m
    cap = fleet.capacity_for(n)
    if cap * m < n - 1:
        raise InfeasibleError(
            f"stop budget {cap} x {m} vehicles cannot cover {n - 1} customers"
        )

    order = schedule.ordering
    done = [False] * len(order)
    head = 0
    remaining = len(order)
    from_node = [instance.depot] * m
    stops = [0] * m
    routes: list[list[int]] = [[instance.depot] for _ in range(m)]
    step = 0

    while remaining > 0:
        target = schedule.visible_target(step)
        while head < len(order) and done[head]:
            head += 1
        nodes: list[int] = []
        positions: list[int] = []
        idx = head
        while idx < len(order) and len(nodes) < target:
            if not done[idx]:
                nodes.append(order[idx])
                positions.append(idx)
            idx += 1
        active = [k for k in range(m) if stops[k] < cap]
        block = instance.submatrix([from_node[k] for k in active], nodes)
        pairs = policy(block)
        if on_step is not None:
            on_step(
                StepTrace(
                    step=step,
                    vehicles=tuple(active),
                    nodes=tuple(nodes),
                    costs=block.copy(),
                    pairs=pairs,
                )
            )
        for a, b in pairs:
            k = active[a]
            routes[k].append(nodes[b])
            from_node[k] = nodes[b]
            stops[k] += 1
            done[positions[b]] = True
            remaining -= 1
        step += 1

    lengths, total = route_lengths([tuple(r) for r in routes], instance, closed)
    return RouteSet(
        routes=tuple(tuple(r) for r in routes),
        lengths=lengths,
        total=total,
        closed=closed,
    )


def bd_cvh(
    instance: RoutingInstance,
    fleet: Fleet,
    schedule: RevealSchedule,
    *,
    closed: bool = False,
    on_step=None,
) -> RouteSet:
    """Dynamic closest-vehicle heuristic with balanced stop budgets."""
    return _dispatch(instance, fleet, schedule, _closest_pairs, closed, on_step)


def bd_avh(
    instance: RoutingInstance,
    fleet: Fleet,
    schedule: RevealSchedule,
    *,
    closed: bool = False,
    on_step=None,
) -> RouteSet:
    """Dynamic assignment heuristic: optimal matching at every step."""
    return _dispatch(instance, fleet, schedule, _assignment_pairs, closed, on_step)


ALGORITHMS = {"avh": bd_avh, "cvh": bd_cvh}


def route_lengths(
    routes: Sequence[Sequence[int]],
    instance: RoutingInstance,
    closed: bool = False,
) -> tuple[tuple[float, ...], float]:
    """Per-route travel lengths and their sum.

    Open routes end at the last stop; closed routes add the leg back to
    the route's start node.
    """
    lengths = []
    for route in routes:
        if not route:
            raise InfeasibleError("route must contain at least its start node")
        length = 0.0
        for a, b in zip(route, route[1:]):
            length += instance.distance(a, b)
        if closed and len(route) > 1:
            length += instance.distance(route[-1], route[0])
        lengths.append(length)
    return tuple(lengths), float(sum(lengths))


def relative_difference(l_assignment: float, l_closest: float) -> float:
    """Relative gap (closest - assignment) / assignment.

    Positive when the closest-vehicle solution is longer.
    """
    if l_assignment <= 0:
        raise InfeasibleError("assignment total must be positive")
    return (l_closest - l_assignment) / l_assignment
