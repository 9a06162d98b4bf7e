"""Domain types for balanced dynamic multi-vehicle routing.

A routing instance is a depot plus customers that become visible over time.
Dynamics scopes describe how many customers are visible per decision step,
either directly (absolute), scaled by fleet size (m-absolute), scaled by
customer count (relative / m-relative), or as an explicit per-step sequence
(variable).  All scoped forms resolve to an absolute per-step visibility
target before solving.  Customers are revealed in instance node order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "BdmtspError",
    "ScopeError",
    "ScheduleError",
    "InfeasibleError",
    "ParseError",
    "RoutingInstance",
    "DynamicsScope",
    "Fleet",
    "RevealSchedule",
    "round_half_up",
    "resolve_scope",
    "balancing_threshold",
    "build_schedule",
]


class BdmtspError(ValueError):
    """Base class for all errors raised by this package."""


class ScopeError(BdmtspError):
    pass


class ScheduleError(BdmtspError):
    pass


class InfeasibleError(BdmtspError):
    pass


class ParseError(BdmtspError):
    pass


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RoutingInstance:
    """Immutable routing instance: node set with a distinguished depot.

    Exactly one of ``coords`` / ``dist`` must be given.  ``coords`` is an
    (n, 2) array of planar points, measured with the Euclidean metric;
    ``dist`` is an explicit (n, n) matrix, possibly asymmetric.  Distances
    for coordinate instances are computed on demand, so very large
    instances never materialise the full matrix.
    """

    name: str
    coords: np.ndarray | None = None
    dist: np.ndarray | None = None
    depot: int = 0

    def __post_init__(self) -> None:
        if (self.coords is None) == (self.dist is None):
            raise BdmtspError("instance needs exactly one of coords and dist")
        if self.coords is not None:
            coords = _readonly(self.coords)
            if coords.ndim != 2 or coords.shape[1] != 2:
                raise BdmtspError("coords must be an (n, 2) array")
            if not np.all(np.isfinite(coords)):
                raise BdmtspError("coordinates must be finite")
            object.__setattr__(self, "coords", coords)
        else:
            dist = _readonly(self.dist)
            if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
                raise BdmtspError("dist must be a square matrix")
            if not np.all(np.isfinite(dist)) or np.any(dist < 0):
                raise BdmtspError("distances must be finite and nonnegative")
            if np.any(np.diagonal(dist) != 0.0):
                raise BdmtspError("distance matrix diagonal must be zero")
            object.__setattr__(self, "dist", dist)
        if self.n < 2:
            raise BdmtspError("instance needs at least two nodes")
        if not 0 <= self.depot < self.n:
            raise BdmtspError(f"depot {self.depot} out of range")

    @property
    def n(self) -> int:
        base = self.coords if self.coords is not None else self.dist
        return len(base)

    def customers(self) -> tuple[int, ...]:
        """Node indices excluding the depot, in instance order."""
        return tuple(i for i in range(self.n) if i != self.depot)

    def distance(self, i: int, j: int) -> float:
        if self.dist is not None:
            return float(self.dist[i, j])
        di = self.coords[i] - self.coords[j]
        return float(math.hypot(di[0], di[1]))

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Distances from ``rows`` to ``cols`` as a dense block."""
        r = np.asarray(rows, dtype=np.intp)
        c = np.asarray(cols, dtype=np.intp)
        if self.dist is not None:
            return self.dist[np.ix_(r, c)]
        p = self.coords[r]
        q = self.coords[c]
        return np.hypot(p[:, 0:1] - q[None, :, 0], p[:, 1:2] - q[None, :, 1])

    def full_matrix(self) -> np.ndarray:
        if self.dist is not None:
            return self.dist
        return _euclid_matrix(self.coords)


def _euclid_matrix(coords: np.ndarray) -> np.ndarray:
    d = coords[:, None, :] - coords[None, :, :]
    return np.hypot(d[..., 0], d[..., 1])


_SCOPE_KINDS = ("absolute", "m_absolute", "relative", "m_relative", "variable")


@dataclass(frozen=True)
class DynamicsScope:
    """How many customers are visible per decision step.

    ``absolute``: fixed count per step.  ``m_absolute``: count per vehicle.
    ``relative`` / ``m_relative``: fraction of the customer count (per
    vehicle for the latter).  ``variable``: explicit per-step counts.
    """

    kind: str
    value: int | float | tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in _SCOPE_KINDS:
            raise ScopeError(f"unknown scope kind {self.kind!r}")
        v = self.value
        if self.kind == "absolute":
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ScopeError("absolute scope must be an integer >= 1")
        elif self.kind == "variable":
            if not isinstance(v, tuple):
                object.__setattr__(self, "value", tuple(v))
                v = self.value
            if not v or any(not isinstance(k, int) or k < 1 for k in v):
                raise ScopeError("variable scope needs integer counts >= 1")
        else:
            if not isinstance(v, (int, float)) or v <= 0:
                raise ScopeError(f"{self.kind} scope must be a positive int or float")
            if isinstance(v, float) and not math.isfinite(v):
                raise ScopeError(f"{self.kind} scope must be finite")
            if self.kind in ("relative", "m_relative") and v > 1:
                raise ScopeError(f"{self.kind} scope must lie in (0, 1]")

    @classmethod
    def absolute(cls, k: int) -> "DynamicsScope":
        return cls("absolute", k)

    @classmethod
    def m_absolute(cls, x) -> "DynamicsScope":
        return cls("m_absolute", x)

    @classmethod
    def relative(cls, x) -> "DynamicsScope":
        return cls("relative", x)

    @classmethod
    def m_relative(cls, x) -> "DynamicsScope":
        return cls("m_relative", x)

    @classmethod
    def variable(cls, counts: Sequence[int]) -> "DynamicsScope":
        return cls("variable", tuple(counts))


@dataclass(frozen=True)
class Fleet:
    """Vehicle fleet with an optional per-vehicle stop budget.

    When ``capacity`` is None the budget defaults to the balancing
    threshold ceil((n-1)/m) of the instance being solved.
    """

    m: int
    capacity: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 1:
            raise BdmtspError("fleet size must be an integer >= 1")
        if self.capacity is not None and self.capacity < 1:
            raise BdmtspError("capacity must be >= 1 when given")

    def capacity_for(self, n: int) -> int:
        if self.capacity is not None:
            return self.capacity
        return balancing_threshold(n, self.m)


def round_half_up(x) -> int:
    """Round to nearest integer with .5 going up (2.5 -> 3, 4.5 -> 5).

    Scope conversions depend on half-up behaviour; Python's round() does
    banker's rounding and must not be substituted here.
    """
    return math.floor(x + 0.5)


def resolve_scope(scope: DynamicsScope, m: int, n: int) -> int:
    """Resolve any sequential scope to an absolute per-step count.

    Relative forms are taken against the customer count n-1.  The result
    is clamped into [1, n-1]; a variable scope has no single count and is
    rejected (build a schedule instead).
    """
    if scope.kind == "variable":
        raise ScopeError("variable scope has no single count; use build_schedule")
    if m < 1:
        raise ScopeError("fleet size must be >= 1")
    if n < 2:
        raise ScopeError("need at least one customer")
    customers = n - 1
    if scope.kind == "absolute":
        k = int(scope.value)
    elif scope.kind == "m_absolute":
        # clamping first keeps a huge finite value from overflowing to inf
        k = round_half_up(min(m * scope.value, customers))
    elif scope.kind == "relative":
        k = round_half_up(customers * scope.value)
    else:  # m_relative
        k = round_half_up(customers * m * scope.value)
    return max(1, min(k, customers))


def balancing_threshold(n: int, m: int) -> int:
    """Per-vehicle stop budget ceil((n-1)/m) that balances route sizes."""
    if n < 2:
        raise BdmtspError("need at least one customer")
    if m < 1:
        raise BdmtspError("fleet size must be >= 1")
    return -((-(n - 1)) // m)


@dataclass(frozen=True)
class RevealSchedule:
    """Per-step visible-count targets for one run.

    ``targets`` holds one target per step.  A sequential scope sets
    ``repeat_last`` and holds a single target, which therefore applies at
    every step, including the extra steps that capacity blocking needs;
    a variable scope raises once its sequence is exhausted.
    """

    targets: tuple[int, ...]
    repeat_last: bool

    def visible_target(self, step: int) -> int:
        if self.repeat_last:
            return self.targets[0]  # the only target; [0] indexes fastest
        if step >= len(self.targets):
            raise ScheduleError(
                "variable dynamics sequence exhausted before all customers served"
            )
        return self.targets[step]


def build_schedule(
    scope: DynamicsScope, instance: RoutingInstance, m: int
) -> RevealSchedule:
    """Build the reveal schedule for ``instance`` under ``scope``.

    A variable sequence is rejected up front when it could not serve
    every customer even if each step served min(m, target) of them.
    """
    n = instance.n
    if m < 1:
        raise ScheduleError("fleet size must be >= 1")
    if scope.kind == "variable":
        if sum(min(m, k) for k in scope.value) < n - 1:
            raise ScheduleError(
                "variable dynamics sequence exhausted before all customers revealed"
            )
        return RevealSchedule(targets=scope.value, repeat_last=False)
    return RevealSchedule(targets=(resolve_scope(scope, m, n),), repeat_last=True)
