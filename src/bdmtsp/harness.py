"""Experiment driver: instance generation, sweeps, table reproduction.

Sweeps run the balanced dynamic heuristics over a grid of (fleet,
customers, visibility) configurations on fresh uniform instances and
record mean open totals.  Seeding is splittable per (seed, config,
rep), so serial and parallel runs produce identical results.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cam import Configuration, SweepResult
from .core import BdmtspError, DynamicsScope, Fleet, RoutingInstance, build_schedule
from .io import parse_tsplib, read_text
# The registry object itself, not a copy: perfbench/layers.py rebinds its
# entries (and this module's build_schedule, instance_for, parse_tsplib),
# so run_sweep and reproduce_table must look all of them up at call time.
from .solvers import ALGORITHMS as _ALGORITHMS, relative_difference, route_lengths

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
    closed: bool = False
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise BdmtspError("need at least one repetition")
        if self.algorithm not in _ALGORITHMS:
            raise BdmtspError(f"unknown algorithm {self.algorithm!r}")
        if not self.configs:
            raise BdmtspError("need at least one configuration")


def _solve_task(args) -> tuple[float, ...]:
    """Totals of each named algorithm on one replayable sweep instance.

    ``args`` is ``(seed, ci, rep, config, algorithms, closed)``; every
    algorithm runs on the same instance and schedule.
    """
    seed, ci, rep, config, algorithms, closed = args
    instance = instance_for(seed, ci, rep, config.n)
    fleet = Fleet(m=config.m)
    schedule = build_schedule(DynamicsScope.absolute(config.d), instance, config.m)
    return tuple(
        _ALGORITHMS[name](instance, fleet, schedule, closed=closed).total
        for name in algorithms
    )


def _sweep_totals(spec: ExperimentSpec, algorithms: tuple[str, ...]) -> list:
    """``_solve_task`` results for every (config, rep), in that order."""
    tasks = [
        (spec.seed, ci, rep, config, algorithms, spec.closed)
        for ci, config in enumerate(spec.configs)
        for rep in range(spec.reps)
    ]
    workers = spec.workers
    if workers is None or workers <= 1:
        return [_solve_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (workers * 8))
        return list(pool.map(_solve_task, tasks, chunksize=chunk))


def run_sweep(spec: ExperimentSpec) -> SweepResult:
    """Solve every configuration reps times; record mean totals.

    Task seeding depends only on (seed, config index, rep), never on
    scheduling, so the means are invariant to ``workers``.
    """
    values = [total for (total,) in _sweep_totals(spec, (spec.algorithm,))]
    means = []
    for ci in range(len(spec.configs)):
        chunk = values[ci * spec.reps : (ci + 1) * spec.reps]
        means.append(float(np.mean(chunk)))
    return SweepResult(
        configs=spec.configs, y=tuple(means), reps=spec.reps, seed=spec.seed
    )


def compare_sweep(spec: ExperimentSpec) -> float:
    """Mean paired relative difference (closest - assignment) / assignment.

    Positive values mean the assignment policy produced shorter routes
    on the same instances.
    """
    deltas = [
        relative_difference(avh, cvh)
        for avh, cvh in _sweep_totals(spec, ("avh", "cvh"))
    ]
    return float(np.mean(deltas))


def parse_scope(text: str) -> DynamicsScope:
    """Parse CLI scope syntax: kind:value.

    Examples: ``absolute:5``, ``m-absolute:1.5``, ``relative:20%`` (or
    ``relative:0.2``), ``m-relative:0.1``, ``variable:3,4,1``.
    """
    kind, sep, value = text.partition(":")
    kind = kind.strip().lower().replace("-", "_")
    if not sep:
        raise BdmtspError(f"scope needs kind:value, got {text!r}")
    if kind not in ("absolute", "m_absolute", "relative", "m_relative", "variable"):
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

_TABLES = {"set1-relative": _SET1_RELATIVE, "set2-absolute": _SET2_ABSOLUTE}
TABLE_IDS = tuple(_TABLES)

# Hard gates: (table, instance, m, scope kind, scope value, algorithm,
# published, relative tolerance).  A gate passes when either closure
# mode lands within tolerance.
_GATES = (
    ("set1-relative", "berlin52.tsp", 5, "relative", 1.00, "avh", 13600.0, 0.02),
    ("set1-relative", "berlin52.tsp", 5, "relative", 1.00, "cvh", 13600.0, 0.02),
    ("set2-absolute", "eil51.tsp", 2, "m_absolute", 0.5, "avh", 1251.6, 0.01),
    ("set2-absolute", "eil51.tsp", 2, "m_absolute", 0.5, "cvh", 1251.6, 0.01),
)


@dataclass(frozen=True)
class TableRow:
    """One published cell next to both recomputed closure modes."""

    instance: str
    m: int
    scope: DynamicsScope
    algorithm: str
    published: float
    computed_open: float
    computed_closed: float

    @property
    def rel_err_open(self) -> float:
        return (self.computed_open - self.published) / self.published

    @property
    def rel_err_closed(self) -> float:
        return (self.computed_closed - self.published) / self.published

    @property
    def best_rel_err(self) -> float:
        return min(self.rel_err_open, self.rel_err_closed, key=abs)


@dataclass(frozen=True)
class TableReport:
    table_id: str
    rows: tuple[TableRow, ...]
    missing: tuple[str, ...]
    gates: tuple[tuple[str, bool, float], ...]  # (label, passed, best rel err)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.gates)

    def to_text(self) -> str:
        lines = [f"table {self.table_id}"]
        if self.missing:
            lines.append("missing instance files: " + ", ".join(self.missing))
        if not self.rows:
            lines.append("nothing to reproduce: no instance files found")
            return "\n".join(lines)
        header = (
            f"{'instance':<12} {'m':>2} {'scope':>16} {'algo':>4} "
            f"{'published':>11} {'open':>11} {'closed':>11} {'best err':>9}"
        )
        lines.append(header)
        for row in self.rows:
            scope = f"{row.scope.kind}={row.scope.value:g}"
            lines.append(
                f"{row.instance:<12} {row.m:>2} {scope:>16} {row.algorithm:>4} "
                f"{row.published:>11.1f} {row.computed_open:>11.1f} "
                f"{row.computed_closed:>11.1f} {row.best_rel_err:>8.2%}"
            )
        for label, passed, err in self.gates:
            state = "pass" if passed else "FAIL"
            lines.append(f"gate [{state}] {label} (best err {err:+.2%})")
        return "\n".join(lines)


def reproduce_table(table_id: str, data_dir) -> TableReport:
    """Recompute one published table from local instance files.

    Emits published vs computed totals (open and closed walks) with
    relative errors; instance files that are not present are listed
    rather than failing the whole run.  Reveal order is the node order
    of the instance file; ties in both heuristics break toward the
    lowest index, which is an assumption the original tables do not pin
    down.
    """
    try:
        blocks = _TABLES[table_id]
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
                # closing the walks changes their lengths, not the routes
                open_rs = _ALGORITHMS[algorithm](instance, fleet, schedule)
                _, closed_total = route_lengths(open_rs.routes, instance, closed=True)
                rows.append(
                    TableRow(
                        instance=fname,
                        m=m,
                        scope=scope,
                        algorithm=algorithm,
                        published=float(pub_values[idx]),
                        computed_open=open_rs.total,
                        computed_closed=closed_total,
                    )
                )
    gates = []
    for g_table, g_file, g_m, g_kind, g_value, g_algo, g_pub, g_tol in _GATES:
        if g_table != table_id:
            continue
        label = f"{g_file} m={g_m} {g_kind}={g_value:g} {g_algo} vs {g_pub:g}"
        match = [
            r
            for r in rows
            if r.instance == g_file
            and r.m == g_m
            and r.scope.kind == g_kind
            and r.scope.value == g_value
            and r.algorithm == g_algo
        ]
        if not match:
            gates.append((label + " (instance file missing)", False, math.nan))
            continue
        err = match[0].best_rel_err
        gates.append((label, abs(err) <= g_tol, err))
    return TableReport(
        table_id=table_id, rows=tuple(rows), missing=tuple(missing), gates=tuple(gates)
    )
