"""Experiment driver: instance generation, sweeps, table reproduction.

Sweeps run the balanced dynamic heuristics over a grid of (fleet,
customers, visibility) configurations on fresh uniform instances and
record mean totals in both walk modes: every solve reports its open
total and, from the same routes, its closed total.  Seeding is
splittable per (seed, config, rep), so serial and parallel runs produce
identical results.  Published table cells are judged on closed walks,
the mode the tables were computed with.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cam import Configuration, SweepResult
from .core import (
    _SCOPE_KINDS,
    _is_count,
    BdmtspError,
    DynamicsScope,
    Fleet,
    RoutingInstance,
    build_schedule,
)
from .io import parse_tsplib, read_text
from . import solvers
# The registry object itself, not a copy: perfbench/layers.py rebinds its
# entries (and solvers.route_lengths, and this module's build_schedule,
# instance_for, parse_tsplib), so run_sweep and reproduce_table must look
# all of them up at call time.
from .solvers import ALGORITHMS as _ALGORITHMS, relative_difference

__all__ = [
    "ExperimentSpec",
    "TableRow",
    "TableReport",
    "gen_uniform",
    "instance_for",
    "run_sweep",
    "compare_sweep",
    "parse_scope",
    "reproduce_table",
    "TABLE_IDS",
]


def gen_uniform(n: int, seed) -> RoutingInstance:
    """n i.i.d. points strictly inside the open unit square; node 0 is depot.

    ``seed`` may be an int or a numpy SeedSequence.  The generator can
    emit exact 0.0; such coordinates are redrawn to keep the interval
    open.
    """
    if n < 2:
        raise BdmtspError("need at least two nodes")
    rng = np.random.default_rng(seed)
    coords = rng.uniform(size=(n, 2))
    while True:
        mask = coords == 0.0
        if not mask.any():
            break
        coords[mask] = rng.uniform(size=int(mask.sum()))
    return RoutingInstance(name=f"uniform-{n}", coords=coords)


def instance_for(seed: int, config_index: int, rep: int, n: int) -> RoutingInstance:
    """The exact instance a sweep task sees; public so runs can be replayed."""
    return gen_uniform(n, np.random.SeedSequence((seed, config_index, rep)))


@dataclass(frozen=True)
class ExperimentSpec:
    """Sweep description: grid of uniform-instance configurations.

    Each configuration supplies its own fleet size and absolute
    visibility; instances are drawn fresh per repetition.
    """

    configs: tuple[Configuration, ...]
    reps: int = 10
    seed: int = 0
    algorithm: str = "avh"
    workers: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise BdmtspError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not _is_count(self.reps):
            raise BdmtspError(f"need an integer number of repetitions >= 1, got {self.reps!r}")
        if self.algorithm not in _ALGORITHMS:
            raise BdmtspError(f"unknown algorithm {self.algorithm!r}")
        if not self.configs:
            raise BdmtspError("need at least one configuration")


def _solve(name: str, instance: RoutingInstance, fleet: Fleet, schedule):
    """One solve by algorithm ``name``: its open routes and their closed total.

    Closing a walk adds the leg back to the depot; it changes the walk's
    length, not its route, so one solve gives the totals of both modes.
    """
    routes = _ALGORITHMS[name](instance, fleet, schedule)
    return routes, solvers.route_lengths(routes.routes, instance, closed=True)[1]


def _solve_task(args) -> tuple[tuple[float, float], ...]:
    """(open, closed) totals of each named algorithm on one sweep instance.

    ``args`` is ``(seed, ci, rep, config, algorithms)``; every algorithm
    runs once on the same replayable instance and schedule.
    """
    seed, ci, rep, config, algorithms = args
    instance = instance_for(seed, ci, rep, config.n)
    fleet = Fleet(m=config.m)
    schedule = build_schedule(DynamicsScope.absolute(config.d), instance, config.m)
    solves = (_solve(name, instance, fleet, schedule) for name in algorithms)
    return tuple((routes.total, closed_total) for routes, closed_total in solves)


def _sweep_totals(spec: ExperimentSpec, algorithms: tuple[str, ...]) -> list:
    """``_solve_task`` results for every (config, rep), in that order."""
    tasks = [
        (spec.seed, ci, rep, config, algorithms)
        for ci, config in enumerate(spec.configs)
        for rep in range(spec.reps)
    ]
    workers = min(spec.workers or 1, len(tasks), _usable_cpus())
    if workers <= 1:
        return [_solve_task(t) for t in tasks]
    # the pool starts all its workers up front, so never ask for more
    # than there are tasks or CPUs to run them
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (workers * 8))
        return list(pool.map(_solve_task, tasks, chunksize=chunk))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def run_sweep(spec: ExperimentSpec) -> SweepResult:
    """Solve every configuration reps times; record mean open and closed totals.

    Task seeding depends only on (seed, config index, rep), never on
    scheduling, so the means are invariant to ``workers``.
    """
    open_totals, closed_totals = zip(
        *(pair for (pair,) in _sweep_totals(spec, (spec.algorithm,)))
    )

    def means(totals) -> tuple[float, ...]:
        return tuple(
            float(np.mean(totals[i : i + spec.reps]))
            for i in range(0, len(totals), spec.reps)
        )

    return SweepResult(
        configs=spec.configs,
        y=means(open_totals),
        reps=spec.reps,
        seed=spec.seed,
        y_closed=means(closed_totals),
        algorithm=spec.algorithm,
    )


def compare_sweep(spec: ExperimentSpec) -> tuple[float, float]:
    """Mean paired relative difference (closest - assignment) / assignment.

    Returns the gap on open walks and the gap on closed walks, both from
    the same solves.  Positive values mean the assignment policy
    produced shorter routes on the same instances.
    """
    totals = _sweep_totals(spec, ("avh", "cvh"))
    return tuple(
        float(np.mean([relative_difference(avh[mode], cvh[mode]) for avh, cvh in totals]))
        for mode in (0, 1)
    )


def parse_scope(text: str) -> DynamicsScope:
    """Parse CLI scope syntax: kind:value.

    Examples: ``absolute:5``, ``m-absolute:1.5``, ``relative:20%`` (or
    ``relative:0.2``), ``m-relative:0.1``, ``variable:3,4,1``.
    """
    kind, sep, value = text.partition(":")
    kind = kind.strip().lower().replace("-", "_")
    if not sep:
        raise BdmtspError(f"scope needs kind:value, got {text!r}")
    if kind not in _SCOPE_KINDS:
        raise BdmtspError(f"unknown scope kind {kind!r}")
    try:
        if kind == "absolute":
            parsed = int(value)
        elif kind == "m_absolute":
            parsed = float(value)
        elif kind == "variable":
            parsed = tuple(int(t) for t in value.split(","))
        else:
            v = value.strip()
            parsed = float(v[:-1]) / 100.0 if v.endswith("%") else float(v)
    except ValueError:
        raise BdmtspError(f"bad scope value in {text!r}") from None
    return DynamicsScope(kind, parsed)


# ----------------------------------------------------- reproduction

# Published totals, transcribed from the original tables.  Values with
# a k suffix there are thousands rounded to one decimal.
_SET1_RELATIVE = (
    (
        "berlin52.tsp",
        5,
        "relative",
        (0.02, 0.05, 0.07, 0.10, 0.20, 0.30, 1.00),
        {
            "avh": (16400, 22600, 22300, 25700, 17100, 15200, 13600),
            "cvh": (16400, 23200, 22600, 26800, 18200, 15900, 13600),
        },
    ),
)

_SET2_ABSOLUTE = (
    (
        "eil51.tsp",
        2,
        "m_absolute",
        (0.5, 1.0, 1.5, 2.0, 4.0, 8.0),
        {
            "avh": (1251.6, 1374.8, 1124.8, 944.4, 717.7, 718.6),
            "cvh": (1251.6, 1436.5, 1202.9, 1069.8, 717.7, 719.5),
        },
    ),
    (
        "eil51.tsp",
        3,
        "m_absolute",
        (0.5, 1.0, 1.5, 2.0, 4.0, 8.0),
        {
            "avh": (1185.8, 1369.6, 957.6, 990.7, 886.0, 650.9),
            "cvh": (1236.3, 1507.1, 966.6, 1007.7, 891.2, 664.0),
        },
    ),
    (
        "eil51.tsp",
        4,
        "m_absolute",
        (0.5, 1.0, 1.5, 2.0, 4.0, 8.0),
        {
            "avh": (1143.4, 1224.5, 1057.4, 1002.6, 680.6, 784.6),
            "cvh": (1116.9, 1269.7, 1075.9, 1064.9, 661.0, 705.6),
        },
    ),
)

# Each table with the unit of its printed last digit: set1 prints
# thousands to one decimal, set2 prints one decimal.  A cell passes when
# its closed total lies within half that unit of the published value.
_TABLES = {
    "set1-relative": (_SET1_RELATIVE, 100.0),
    "set2-absolute": (_SET2_ABSOLUTE, 0.1),
}
TABLE_IDS = tuple(_TABLES)

# Named expected deviations, keyed by ``_cell``: cells whose closed total
# misses the published value, each pinned to its computed closed total as
# printed (one decimal), so any change that moves one fails its gate.
# The cause of the berlin52 one (-1.82%) is open; ROADMAP.md lists what
# has been ruled out.
_DEVIATIONS = {"berlin52.tsp m=5 relative=1 avh": 13353.1}
_PIN_UNIT = 0.1


@dataclass(frozen=True)
class TableRow:
    """One published cell next to its recomputed open and closed totals.

    Only ``computed_closed`` is gated; ``computed_open`` is information.
    """

    instance: str
    m: int
    scope: DynamicsScope
    algorithm: str
    published: float
    computed_open: float
    computed_closed: float

    @property
    def rel_err_closed(self) -> float:
        return (self.computed_closed - self.published) / self.published


def _cell(row: TableRow) -> str:
    return f"{row.instance} m={row.m} {row.scope.kind}={row.scope.value:g} {row.algorithm}"


def _gate(row: TableRow, unit: float) -> tuple[str, bool, float]:
    """(label, passed, closed relative error) of one cell.

    The closed total must lie within half a unit of the last digit of the
    published value, or of the pin of a named deviation.
    """
    label = _cell(row)
    pinned = _DEVIATIONS.get(label)
    if pinned is None:
        target, label = row.published, f"{label} vs {row.published:g}"
    else:
        target, unit = pinned, _PIN_UNIT
        label += (
            f": expected deviation, published {row.published:g}, computed "
            f"{row.computed_closed:.1f} (pinned {pinned:g} ±{_PIN_UNIT / 2:g}), "
            "cause still open"
        )
    return label, abs(row.computed_closed - target) <= unit / 2, row.rel_err_closed


@dataclass(frozen=True)
class TableReport:
    table_id: str
    rows: tuple[TableRow, ...]
    missing: tuple[str, ...]
    gates: tuple[tuple[str, bool, float], ...]  # _gate of each row, in row order

    @property
    def ok(self) -> bool:
        return not self.missing and all(passed for _, passed, _ in self.gates)

    def to_text(self) -> str:
        lines = [f"table {self.table_id}"]
        if self.missing:
            lines.append("missing instance files: " + ", ".join(self.missing))
        if not self.rows:
            lines.append("nothing to reproduce: no instance files found")
            return "\n".join(lines)
        header = (
            f"{'instance':<12} {'m':>2} {'scope':>16} {'algo':>4} "
            f"{'published':>11} {'open':>11} {'closed':>11} {'closed err':>10} state"
        )
        lines.append(header)
        deviations = []
        for row, (label, passed, err) in zip(self.rows, self.gates):
            deviation = _cell(row) in _DEVIATIONS
            if deviation:
                deviations.append(label)
            state = "FAIL" if not passed else "deviation" if deviation else "pass"
            scope = f"{row.scope.kind}={row.scope.value:g}"
            lines.append(
                f"{row.instance:<12} {row.m:>2} {scope:>16} {row.algorithm:>4} "
                f"{row.published:>11.1f} {row.computed_open:>11.1f} "
                f"{row.computed_closed:>11.1f} {err:>+10.2%} {state}"
            )
        n_passed = sum(passed for _, passed, _ in self.gates)
        unit = _TABLES[self.table_id][1]
        lines.append(
            f"closed walks: {n_passed} of {len(self.gates)} gates pass (half a unit "
            f"of the last printed digit: ±{unit / 2:g})"
            + "".join(f"; {label}" for label in deviations)
        )
        return "\n".join(lines)


def reproduce_table(table_id: str, data_dir) -> TableReport:
    """Recompute one published table from local instance files.

    Emits published vs computed totals of both walk modes from one solve
    per cell, and gates every cell on its closed total (see ``_gate``);
    instance files that are not present are listed rather than failing
    the whole run.  Reveal order is the node order of the instance file;
    ties in both heuristics break toward the lowest index, which is an
    assumption the original tables do not pin down.
    """
    try:
        blocks, unit = _TABLES[table_id]
    except KeyError:
        raise BdmtspError(
            f"unknown table {table_id!r}; known: {', '.join(TABLE_IDS)}"
        ) from None
    data_dir = Path(data_dir)
    rows: list[TableRow] = []
    missing: list[str] = []
    for fname, m, kind, values, published in blocks:
        path = data_dir / fname
        if not path.is_file():
            if fname not in missing:
                missing.append(fname)
            continue
        instance = parse_tsplib(read_text(path))
        fleet = Fleet(m=m)
        for idx, value in enumerate(values):
            scope = DynamicsScope(kind, value)
            schedule = build_schedule(scope, instance, m)
            for algorithm, pub_values in sorted(published.items()):
                routes, closed_total = _solve(algorithm, instance, fleet, schedule)
                rows.append(
                    TableRow(
                        instance=fname,
                        m=m,
                        scope=scope,
                        algorithm=algorithm,
                        published=float(pub_values[idx]),
                        computed_open=routes.total,
                        computed_closed=closed_total,
                    )
                )
    return TableReport(
        table_id=table_id,
        rows=tuple(rows),
        missing=tuple(missing),
        gates=tuple(_gate(row, unit) for row in rows),
    )
