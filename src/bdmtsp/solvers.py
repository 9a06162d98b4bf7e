"""Balanced dynamic routing heuristics.

Both solvers share one dispatch loop.  Every route starts at the depot,
node 0.  At each step the schedule's target for that step gives how many
of the not-yet-served customers, in instance node order, are visible;
every vehicle below its stop budget is active, and a step policy matches
active vehicles to visible customers.  The closest-vehicle policy picks
globally nearest (vehicle, customer) pairs greedily; the assignment
policy solves a minimum-cost matching per step.  Vehicles that reach
the stop budget stop accepting work, which keeps route sizes balanced.

A step's cost block comes from ``RoutingInstance.submatrix``: a list of
Python float rows for a small coordinate block, a numpy array
otherwise.  The assignment policy passes it to ``solve_assignment`` as
it is; the closest-vehicle policy and the step trace take a numpy copy,
which the closest-vehicle policy masks in place: it reads each pick's
row and column from the flat ``argmin`` with ``divmod``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .assignment import solve_assignment
from .core import Fleet, InfeasibleError, RoutingInstance, ScheduleError, _sum_left

__all__ = [
    "ALGORITHMS",
    "RouteSet",
    "StepTrace",
    "bd_cvh",
    "bd_avh",
    "solve",
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
    """Instrumentation record for one dispatch step (testing hook).

    ``costs`` is a numpy copy of the step's cost block, of shape
    (active vehicles, visible customers); it is built only when a hook
    is set.
    """

    step: int
    vehicles: tuple[int, ...]
    nodes: tuple[int, ...]
    costs: np.ndarray
    pairs: tuple[tuple[int, int], ...]


def _closest_pairs(block) -> tuple[tuple[int, int], ...]:
    # Repeated global argmin; ties resolve to the first flat index in
    # row-major order.  Chosen rows/columns are masked within the step.
    work = np.array(block, dtype=float)
    nrows, ncols = work.shape
    out = []
    for _ in range(min(nrows, ncols)):
        i, j = divmod(int(work.argmin()), ncols)
        out.append((i, j))
        work[i] = np.inf
        work[:, j] = np.inf
    return tuple(out)


def _assignment_pairs(block) -> tuple[tuple[int, int], ...]:
    # looked up at call time, so a tracer that rebinds the module
    # attribute sees every step's matching
    return solve_assignment(block)


def _dispatch(
    instance: RoutingInstance,
    fleet: Fleet,
    schedule: tuple[int, ...],
    policy: Callable[..., tuple[tuple[int, int], ...]],
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

    pending = list(instance.customers())
    from_node = [instance.depot] * m
    stops = [0] * m
    routes: list[list[int]] = [[instance.depot] for _ in range(m)]
    step = 0

    while pending:
        if step == len(schedule):
            raise ScheduleError(
                "variable dynamics sequence exhausted before all customers served"
            )
        nodes = pending[:schedule[step]]
        active = [k for k in range(m) if stops[k] < cap]
        block = instance.submatrix([from_node[k] for k in active], nodes)
        pairs = policy(block)
        if on_step is not None:
            on_step(
                StepTrace(
                    step=step,
                    vehicles=tuple(active),
                    nodes=tuple(nodes),
                    costs=np.array(block, dtype=float),
                    pairs=pairs,
                )
            )
        for a, b in pairs:
            k = active[a]
            routes[k].append(nodes[b])
            from_node[k] = nodes[b]
            stops[k] += 1
        for b in sorted((b for _, b in pairs), reverse=True):
            del pending[b]
        step += 1

    route_tuples = tuple(tuple(r) for r in routes)
    lengths, total = route_lengths(route_tuples, instance, closed)
    return RouteSet(routes=route_tuples, lengths=lengths, total=total, closed=closed)


def bd_cvh(
    instance: RoutingInstance,
    fleet: Fleet,
    schedule: tuple[int, ...],
    *,
    closed: bool = False,
    on_step=None,
) -> RouteSet:
    """Dynamic closest-vehicle heuristic with balanced stop budgets."""
    return _dispatch(instance, fleet, schedule, _closest_pairs, closed, on_step)


def bd_avh(
    instance: RoutingInstance,
    fleet: Fleet,
    schedule: tuple[int, ...],
    *,
    closed: bool = False,
    on_step=None,
) -> RouteSet:
    """Dynamic assignment heuristic: optimal matching at every step."""
    return _dispatch(instance, fleet, schedule, _assignment_pairs, closed, on_step)


ALGORITHMS = {"avh": bd_avh, "cvh": bd_cvh}


def solve(
    name: str, instance: RoutingInstance, fleet: Fleet, schedule: tuple[int, ...]
) -> tuple[RouteSet, RouteSet]:
    """One solve by algorithm ``name``: its routes as open and as closed walks.

    Closing a walk adds the leg back to the depot; it changes the walk's
    length, not its route, so one solve gives both modes.  The registry
    entry and ``route_lengths`` are looked up at call time, so a tracer
    that rebinds them sees both.
    """
    open_ = ALGORITHMS[name](instance, fleet, schedule)
    lengths, total = route_lengths(open_.routes, instance, closed=True)
    return open_, RouteSet(routes=open_.routes, lengths=lengths, total=total, closed=True)


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
        walk = list(route)
        if closed and len(walk) > 1:
            walk.append(walk[0])
        lengths.append(_walk_length(instance, walk))
    return tuple(lengths), _sum_left(lengths)


def _walk_length(instance: RoutingInstance, walk: list[int]) -> float:
    return _sum_left(instance.legs(walk).tolist())


def relative_difference(l_assignment: float, l_closest: float) -> float:
    """Relative gap (closest - assignment) / assignment.

    Positive when the closest-vehicle solution is longer.
    """
    if l_assignment <= 0:
        raise InfeasibleError("assignment total must be positive")
    return (l_closest - l_assignment) / l_assignment
