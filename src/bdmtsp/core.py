"""Domain types for balanced dynamic multi-vehicle routing.

A routing instance is a depot plus customers that become visible over time.
Dynamics scopes describe how many customers are visible per decision step,
either directly (absolute), scaled by fleet size (m-absolute), scaled by
customer count (relative / m-relative), or as an explicit per-step sequence
(variable).  All scoped forms resolve to an absolute per-step visibility
target before solving, and ``build_schedule`` turns a scope into one
visible-count target per decision step.  Node 0 of every instance is the
depot; the customers are nodes 1..n-1, revealed in that order.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import ClassVar, Sequence

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


def _euclid(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    # The one planar distance kernel.  Every operation is a correctly
    # rounded IEEE-754 one, so plain Python floats give the same bits on
    # any conforming platform (the list form of ``submatrix`` relies on
    # it); a C library call such as hypot or pow would not promise that.
    return np.sqrt(dx * dx + dy * dy)


# Coordinate blocks with at most this many entries are built as Python
# float lists: below it numpy's per-call cost outweighs the arithmetic.
# Measured per step (block plus the solver's validation): the two forms
# cost about the same between 48 and 64 entries.
_LIST_BLOCK = 64


def _sum_left(values) -> float:
    # Left to right on Python floats: the builtin ``sum`` compensates
    # from Python 3.12 on, so its bits would depend on the interpreter.
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class RoutingInstance:
    """Immutable routing instance: node 0 is the depot, the rest customers.

    Exactly one of ``coords`` / ``dist`` must be given.  ``coords`` is an
    (n, 2) array of planar points, each component at most ``max_coord``
    in magnitude, measured as sqrt(dx*dx + dy*dy) of from-node minus
    to-node; ``dist`` is an explicit (n, n) matrix, possibly asymmetric.
    Distances for coordinate instances are computed on demand, so very
    large instances never materialise the full matrix.
    """

    name: str
    coords: np.ndarray | None = None
    dist: np.ndarray | None = None
    depot: ClassVar[int] = 0
    # dx*dx overflows past |dx| ~ 1.3e154; at this bound 8 * max_coord**2
    # is still finite, so no distance or route total becomes inf.
    max_coord: ClassVar[float] = 1e150

    def __post_init__(self) -> None:
        if (self.coords is None) == (self.dist is None):
            raise BdmtspError("instance needs exactly one of coords and dist")
        if self.coords is not None:
            coords = _readonly(self.coords)
            if coords.ndim != 2 or coords.shape[1] != 2:
                raise BdmtspError("coords must be an (n, 2) array")
            if not np.all(np.abs(coords) <= self.max_coord):
                raise BdmtspError(
                    f"coordinates must be finite and at most {self.max_coord:g} in magnitude"
                )
            object.__setattr__(self, "coords", coords)
            # compact Python-float copies for the small-block list kernel,
            # and zero-copy contiguous numpy views of them for large blocks
            xs = array("d", coords[:, 0].tobytes())
            ys = array("d", coords[:, 1].tobytes())
            object.__setattr__(self, "_x", xs)
            object.__setattr__(self, "_y", ys)
            object.__setattr__(self, "_xv", _readonly(np.frombuffer(xs)))
            object.__setattr__(self, "_yv", _readonly(np.frombuffer(ys)))
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

    @property
    def n(self) -> int:
        base = self.coords if self.coords is not None else self.dist
        return len(base)

    def customers(self) -> tuple[int, ...]:
        """Node indices excluding the depot, in instance order."""
        return tuple(range(1, self.n))

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]):
        """Distances from ``rows`` to ``cols`` as a dense block.

        Two forms, both indexed ``block[i][j]`` and bit-equal entry by
        entry.  A coordinate block of at most ``_LIST_BLOCK`` entries is
        a list of Python float rows, computed with the kernel's own
        operations; any larger block, and every block of an explicit
        ``dist`` matrix, is a numpy array.  A larger coordinate block
        gathers its points from zero-copy contiguous views of the same
        x and y copies the list form reads, not from strided columns of
        ``coords``.  Every coordinate entry is finite: components are
        bounded by ``max_coord``, so no squared difference overflows and
        the block needs no finiteness check.
        """
        if self.dist is None and len(rows) * len(cols) <= _LIST_BLOCK:
            xs, ys, sqrt = self._x, self._y, math.sqrt
            q = list(zip([xs[j] for j in cols], [ys[j] for j in cols]))
            block = []
            for i in rows:
                px, py = xs[i], ys[i]
                block.append(
                    [sqrt((px - qx) * (px - qx) + (py - qy) * (py - qy)) for qx, qy in q]
                )
            return block
        r = np.asarray(rows, dtype=np.intp)
        c = np.asarray(cols, dtype=np.intp)
        if self.dist is not None:
            return self.dist[np.ix_(r, c)]
        xs, ys = self._xv, self._yv
        return _euclid(xs[r, None] - xs[c], ys[r, None] - ys[c])

    def legs(self, walk: Sequence[int]) -> np.ndarray:
        """Distance from each node of ``walk`` to the next, in walk order.

        Each leg is bit-equal to the ``submatrix`` entry for its
        (from, to) pair.
        """
        w = np.asarray(walk, dtype=np.intp)
        if self.dist is not None:
            return self.dist[w[:-1], w[1:]]
        d = self.coords[w[:-1]] - self.coords[w[1:]]
        return _euclid(d[:, 0], d[:, 1])


_SCOPE_KINDS = ("absolute", "m_absolute", "relative", "m_relative", "variable")


def _is_count(v) -> bool:
    """True for an int >= 1 that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


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
            if not _is_count(v):
                raise ScopeError("absolute scope must be an integer >= 1")
        elif self.kind == "variable":
            if not isinstance(v, tuple):
                object.__setattr__(self, "value", tuple(v))
                v = self.value
            if not v or not all(map(_is_count, v)):
                raise ScopeError("variable scope needs integer counts >= 1")
        else:
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0:
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
        if not _is_count(self.m):
            raise BdmtspError("fleet size must be an integer >= 1")
        if self.capacity is not None and not _is_count(self.capacity):
            raise BdmtspError("capacity must be an integer >= 1 when given")

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


def build_schedule(
    scope: DynamicsScope, instance: RoutingInstance, m: int
) -> tuple[int, ...]:
    """The visible-count target of every decision step for ``instance``.

    A sequential scope repeats its resolved count n-1 times: every step
    serves at least one customer, so no run takes more steps.  A variable
    scope is its own sequence, rejected up front when it could not serve
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
        return scope.value
    return (resolve_scope(scope, m, n),) * (n - 1)
