"""The three benchmark workloads: inputs, one timed pass, and output checks.

Every workload is built from the seed alone, runs in this process (the
grid sweep adds a two-worker pool), and checks every output it times.
A pass returns the wall time of each segment plus its outputs.  Every
later pass of the same run must reproduce the first pass's outputs
exactly, and the digest hashes the first pass's outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from bdmtsp import cam, core, geometry, harness, solvers
from bdmtsp import io as bio
from bdmtsp import warehouse as wh

NPROC = len(os.sched_getaffinity(0))
WORKERS = min(2, NPROC)


def hash_outputs(payload) -> str:
    """Short hash of a JSON-able payload; floats enter as exact hex."""

    def exact(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, (list, tuple)):
            return [exact(v) for v in value]
        if isinstance(value, dict):
            return {k: exact(v) for k, v in value.items()}
        return value

    text = json.dumps(exact(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Checks:
    """Operations attempted and failed; the first few failures are kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(problems)}")


def route_problems(routes, instance, fleet, closed: bool) -> list[str]:
    """Everything wrong with one solve's output."""
    problems = []
    if sorted(v for r in routes.routes for v in r[1:]) != list(instance.customers()):
        problems.append("customers not served exactly once")
    if any(not r or r[0] != instance.depot for r in routes.routes):
        problems.append("a route does not start at the depot")
    cap = fleet.capacity_for(instance.n)
    if any(len(r) - 1 > cap for r in routes.routes):
        problems.append(f"a route exceeds the stop budget {cap}")
    lengths, total = solvers.route_lengths(routes.routes, instance, closed)
    if total != routes.total or lengths != routes.lengths:
        problems.append(f"total {routes.total!r} != recomputed {total!r}")
    return problems


@dataclass
class Pass:
    """One pass: the wall time of each timed segment, plus the outputs to check.

    Segments run back to back and cover the whole pass; every pass of a
    workload has the same segments in the same order.  Each workload's
    ``run(serial)`` makes one pass; only the grid sweep has a pool to skip.
    """

    segments: dict[str, float] = field(default_factory=dict)
    solve_keys: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def timed(self, key: str, fn, *args, solve: bool = False, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.segments[key] = time.perf_counter() - t0
        if solve:
            self.solve_keys.append(key)
        return result

    def seconds(self, prefix: str = "") -> float:
        return sum(v for k, v in self.segments.items() if k.startswith(prefix))

    def solve_seconds(self) -> float:
        return sum(self.segments[k] for k in self.solve_keys)


def _median(values):
    return float(np.median(values))


# ------------------------------------------------------------ grid sweep


class GridSweep:
    """Full 420-config grid, one repetition, solved with avh, then the fit."""

    reps = 1
    replays = 42  # configurations re-solved in process per run

    def __init__(self, seed: int, size: str) -> None:
        if size == "smoke":
            configs = tuple(
                cam.Configuration(m=m, n=n, d=d)
                for m in range(1, 8)
                for n in (50, 100)
                for d in range(5, 31, 5)
            )
        else:
            configs = cam.sweep_configs()
        self.paper_grid = size == "full"
        self.seed = seed
        self.spec = harness.ExperimentSpec(
            configs=configs, reps=self.reps, seed=seed, algorithm="avh", workers=WORKERS
        )
        self.serial = harness.ExperimentSpec(
            configs=configs, reps=self.reps, seed=seed, algorithm="avh", workers=None
        )
        self.solves_per_pass = len(configs) * self.reps

    def run(self, serial: bool = False) -> Pass:
        out = Pass()
        spec = self.serial if serial else self.spec
        result = out.timed("sweep", harness.run_sweep, spec, solve=True)
        X = out.timed("fit.features", cam.feature_matrix, result.configs)
        steps = out.timed("fit.select", cam.backward_select, X, np.asarray(result.y))
        out.outputs = {
            "means": list(result.y),
            "subsets": [list(s.feature_idx) for s in steps],
            "mape": {len(s.feature_idx): s.stats["mape"] for s in steps},
        }
        return out

    def check(self, p: Pass, ref: Pass, checks: Checks) -> None:
        means, subsets = p.outputs["means"], p.outputs["subsets"]
        for ci, (got, want) in enumerate(zip(means, ref.outputs["means"])):
            bad = []
            if not (math.isfinite(got) and got > 0):
                bad.append(f"mean {got!r} not finite and positive")
            if got != want:
                bad.append(f"mean {got!r} != first pass {want!r}")
            checks.op(bad, f"sweep config {ci}")
        bad = []
        width = len(subsets[-1])
        for k, subset in enumerate(subsets, start=1):
            if len(subset) != k:
                bad.append(f"stage {k} keeps {len(subset)} columns")
            elif k < width and not set(subset) < set(subsets[k]):
                bad.append(f"stage {k} is not stage {k + 1} minus one column")
        # The fit-quality gate holds on the paper's grid only; the 3f gate
        # of the acceptance test is not applied, see README.md.
        mape = p.outputs["mape"][width]
        if self.paper_grid and mape > 0.05:
            bad.append(f"{width}f MAPE {mape:.4f} > 5%")
        if subsets != ref.outputs["subsets"]:
            bad.append("selected subsets differ from the first pass")
        checks.op(bad, "fit")

    def replay(self, ref: Pass, checks: Checks) -> None:
        """Re-solve a seeded sample of configurations in process.

        The pool hides each solve's routes, so the route contract is
        checked here, and each replayed mean must equal the pool's.
        """
        configs = self.spec.configs
        rng = np.random.default_rng((self.seed, 1))
        count = min(self.replays, len(configs))
        for ci in sorted(rng.choice(len(configs), size=count, replace=False)):
            config = configs[ci]
            fleet = core.Fleet(m=config.m)
            totals, bad = [], []
            for rep in range(self.reps):
                inst = harness.instance_for(self.seed, int(ci), rep, config.n)
                sched = core.build_schedule(core.DynamicsScope.absolute(config.d), inst, config.m)
                routes = solvers.bd_avh(inst, fleet, sched)
                bad += route_problems(routes, inst, fleet, closed=False)
                totals.append(routes.total)
            mean = float(np.mean(totals))
            if mean != ref.outputs["means"][ci]:
                bad.append(f"replayed mean {mean!r} != pool mean {ref.outputs['means'][ci]!r}")
            checks.op(bad, f"replay config {ci}")

    def digest(self, p: Pass) -> str:
        return hash_outputs({"means": p.outputs["means"], "subsets": p.outputs["subsets"]})

    def named(self, passes: list[Pass]) -> dict[str, tuple[float, str]]:
        sweep = _median([p.seconds("sweep") for p in passes])
        mape = passes[0].outputs["mape"]
        return {
            "sweep_solves_per_s": (self.solves_per_pass / sweep, "1/s"),
            "fit_s": (_median([p.seconds("fit.") for p in passes]), "s"),
            "fit.mape_full": (mape[max(mape)], "ratio"),
            "fit.mape_3f": (mape[3], "ratio"),
        }


# ---------------------------------------------------------- online solve


class OnlineSolve:
    """Single instances solved one at a time by avh and by cvh."""

    # (customers + depot, fleet, scope): windows up to ~300 columns
    full_inputs = tuple(
        (n, m, scope)
        for n in (1000, 3000)
        for m in (3, 7)
        for scope in ("relative:1%", "relative:10%", "m-absolute:1")
    )
    smoke_inputs = ((200, 3, "relative:10%"), (200, 7, "m-absolute:1"))

    def __init__(self, seed: int, size: str, data_dir: Path) -> None:
        self.data_dir = data_dir
        for fname in ("berlin52.tsp", "eil51.tsp"):
            if not (data_dir / fname).is_file():
                raise FileNotFoundError(data_dir / fname)
        self.inputs = []
        specs = self.smoke_inputs if size == "smoke" else self.full_inputs
        for index, (n, m, scope) in enumerate(specs):
            inst = harness.instance_for(seed, index, 0, n)
            self.inputs.append((inst, core.Fleet(m=m), harness.parse_scope(scope)))
        self.solves_per_pass = 2 * len(self.inputs)
        self.steps: dict[str, int] = {}

    def count_steps(self) -> None:
        """Decision steps per policy, counted once outside any timing."""
        self.steps = {"avh": 0, "cvh": 0}

        def count(policy):
            def on_step(_):
                self.steps[policy] += 1

            return on_step

        for inst, fleet, scope in self.inputs:
            sched = core.build_schedule(scope, inst, fleet.m)
            solvers.bd_avh(inst, fleet, sched, on_step=count("avh"))
            solvers.bd_cvh(inst, fleet, sched, on_step=count("cvh"))

    def run(self, serial: bool = False) -> Pass:
        out = Pass()
        routes = []
        for k, (inst, fleet, scope) in enumerate(self.inputs):
            sched = out.timed(f"schedule {k}", core.build_schedule, scope, inst, fleet.m)
            for policy, fn in (("avh", solvers.bd_avh), ("cvh", solvers.bd_cvh)):
                routes.append(out.timed(f"{policy} {k}", fn, inst, fleet, sched, solve=True))
        reports = [
            out.timed(f"reproduce {t}", harness.reproduce_table, t, self.data_dir)
            for t in harness.TABLE_IDS
        ]
        out.outputs = {"routes": routes, "reports": reports}
        return out

    def _totals(self, p: Pass) -> dict:
        return {
            "solves": [rs.total for rs in p.outputs["routes"]],
            "tables": [
                [row.computed_open, row.computed_closed]
                for report in p.outputs["reports"]
                for row in report.rows
            ],
        }

    def check(self, p: Pass, ref: Pass, checks: Checks) -> None:
        pairs = [(inst, fleet) for inst, fleet, _ in self.inputs for _ in range(2)]
        ref_totals = self._totals(ref)["solves"]
        for k, (rs, (inst, fleet)) in enumerate(zip(p.outputs["routes"], pairs)):
            bad = route_problems(rs, inst, fleet, closed=False)
            if rs.total != ref_totals[k]:
                bad.append(f"total {rs.total!r} != first pass {ref_totals[k]!r}")
            checks.op(bad, f"online solve {k}")
        for report, ref_report in zip(p.outputs["reports"], ref.outputs["reports"]):
            bad = [f"gate failed: {label}" for label, ok, _ in report.gates if not ok]
            if report.missing:
                bad.append(f"missing instance files {report.missing}")
            if report.rows != ref_report.rows:
                bad.append("table totals differ from the first pass")
            checks.op(bad, f"reproduce {report.table_id}")

    def digest(self, p: Pass) -> str:
        return hash_outputs(self._totals(p))

    def named(self, passes: list[Pass]) -> dict[str, tuple[float, str]]:
        avh = sum(p.seconds("avh ") for p in passes) / (self.steps["avh"] * len(passes))
        cvh = sum(p.seconds("cvh ") for p in passes) / (self.steps["cvh"] * len(passes))
        latencies = sorted(p.segments[k] for p in passes for k in p.solve_keys)
        count = len(latencies)
        # highest percentile that leaves ten samples above it
        above = min(10, count - 1)
        tail_pct = 100.0 * (count - above) / count
        return {
            "avh_decision_us": (avh * 1e6, "us"),
            "cvh_decision_us": (cvh * 1e6, "us"),
            "solve_ms_p50": (_median(latencies) * 1e3, "ms"),
            "solve_ms_tail": (latencies[count - 1 - above] * 1e3, "ms"),
            "solve_ms_tail.percentile": (tail_pct, "%"),
            "solve_ms_tail.samples": (count, "count"),
            "reproduce_s": (_median([p.seconds("reproduce") for p in passes]), "s"),
        }


# -------------------------------------------------------------- adapters

_TAXI_HEADER = (
    "pickup_datetime,pickup_latitude,pickup_longitude,dropoff_latitude,"
    "dropoff_longitude,trip_duration,dist_meters,wait_sec"
)


def taxi_csv(rng: np.random.Generator, rows: int) -> tuple[str, dict]:
    """Synthetic trip log around the default depot plus the expected counts.

    Of the rows, 5% break a cleaning filter, 3% are malformed, 4% carry
    an inflated odometer reading and the rest are plausible trips (the
    outliers have a recorded/great-circle ratio of 4 to 8, so the detour
    filter flags them).  Plausible trips keep that ratio in [1.15, 1.6].
    The seed shuffles the rows and draws their values.
    """
    base = datetime(2017, 5, 1)
    lines = [_TAXI_HEADER]
    expected = {"total": rows, "kept": 0, "dropped": 0, "malformed": 0, "outliers": 0}
    planted = [round(rows * share) for share in (0.05, 0.03, 0.04)]
    # 0 plausible, 1 filtered, 2 malformed, 3 odometer outlier
    kinds = rng.permutation(np.repeat([0, 1, 2, 3], [rows - sum(planted)] + planted))
    for kind in kinds:
        plat, plon = 19.40 + rng.uniform(-0.08, 0.08), -99.15 + rng.uniform(-0.08, 0.08)
        dlat = plat + rng.choice((-1, 1)) * rng.uniform(0.005, 0.05)
        dlon = plon + rng.choice((-1, 1)) * rng.uniform(0.005, 0.05)
        great_km = geometry.haversine(geometry.GeoPoint(plat, plon), geometry.GeoPoint(dlat, dlon))
        ratio = rng.uniform(4.0, 8.0) if kind == 3 else rng.uniform(1.15, 1.6)
        fields = {
            "when": (base + timedelta(seconds=int(rng.integers(0, 86400)))).isoformat(),
            "plat": f"{plat:.6f}",
            "plon": f"{plon:.6f}",
            "dlat": f"{dlat:.6f}",
            "dlon": f"{dlon:.6f}",
            "dur": f"{great_km * 1.3 / 20.0 * 3600.0:.0f}",  # about 20 km/h
            "dist": f"{great_km * ratio * 1000.0:.1f}",
            "wait": f"{rng.uniform(0.0, 1200.0):.0f}",
        }
        if kind == 1:  # fails one cleaning filter
            which = int(rng.integers(3))
            if which == 0:
                fields["wait"] = "6000"  # 100 min > 90
            elif which == 1:
                fields["plat"] = "18.500000"  # south of the study area
            else:
                fields["dur"] = "12000"  # 200 min > 180
            expected["dropped"] += 1
        elif kind == 2:  # does not parse
            which = int(rng.integers(3))
            if which == 0:
                fields["dist"] = "n/a"
            elif which == 1:
                fields["when"] = "yesterday"
            else:
                fields["plat"] = "95.0"
            expected["malformed"] += 1
        else:
            expected["kept"] += 1
            expected["outliers"] += kind == 3
        lines.append(",".join(fields.values()))
    return "\n".join(lines) + "\n", expected


class Adapters:
    """Warehouse job set and taxi trip log, each routed with avh."""

    depot = "a0.0"
    taxi_depot = (19.3702, -99.1799)  # the taxi command's default depot

    def __init__(self, seed: int, size: str) -> None:
        rng = np.random.default_rng((seed, 2))
        rows, cols, jobs, trips = (5, 6, 20, 100) if size == "smoke" else (20, 30, 200, 1200)
        spec = wh.AisleSpec(dx=2.0, dy=3.0, shelf_len=1.5)  # binary-exact lengths
        self.net = wh.grid_network(rows, cols, spec)
        shelves = [nid for nid in self.net.node_ids if nid.startswith("s")]
        self.triples = []
        for k in range(jobs):
            src, dst = rng.choice(shelves, size=2, replace=False)
            self.triples.append((f"j{k}", str(src), str(dst)))
        self.csv, self.expected = taxi_csv(rng, trips)
        self.solves_per_pass = 2
        self.wh_fleet, self.wh_scope = core.Fleet(m=4), harness.parse_scope("absolute:12")
        self.taxi_fleet, self.taxi_scope = core.Fleet(m=8), harness.parse_scope("absolute:24")

    def run(self, serial: bool = False) -> Pass:
        out = Pass()
        jobs = out.timed("warehouse.jobs", wh.transfer_jobs, self.net, self.triples)
        wh_inst, internal = out.timed(
            "warehouse.matrix", wh.jobs_to_instance, self.net, jobs, self.depot
        )
        sched = out.timed(
            "warehouse.schedule", core.build_schedule, self.wh_scope, wh_inst, self.wh_fleet.m
        )
        wh_routes = out.timed(
            "warehouse.solve", solvers.bd_avh, wh_inst, self.wh_fleet, sched, closed=True,
            solve=True,
        )
        walks = [
            out.timed(f"warehouse.expand {k}", wh.expand_route, self.net, jobs, self.depot, r)[1]
            for k, r in enumerate(wh_routes.routes)
        ]
        loaded = out.timed("taxi.load", bio.load_taxi_csv, self.csv)
        factor, outliers = out.timed("taxi.detour", geometry.detour_factor, loaded.trips)
        trips = out.timed("taxi.repair", geometry.repair_outliers, loaded.trips, factor)
        depot = geometry.GeoPoint(*self.taxi_depot)
        taxi_inst, taxi_internal = out.timed("taxi.matrix", bio.trips_to_instance, trips, depot)
        sched = out.timed(
            "taxi.schedule", core.build_schedule, self.taxi_scope, taxi_inst, self.taxi_fleet.m
        )
        taxi_routes = out.timed(
            "taxi.solve", solvers.bd_avh, taxi_inst, self.taxi_fleet, sched, solve=True
        )
        out.outputs = {
            "warehouse": (wh_inst, wh_routes, internal, walks),
            "taxi": (taxi_inst, taxi_routes, taxi_internal, loaded, outliers),
        }
        return out

    def _totals(self, p: Pass) -> dict:
        _, wh_routes, internal, walks = p.outputs["warehouse"]
        _, taxi_routes, taxi_internal, loaded, _ = p.outputs["taxi"]
        return {
            "warehouse": [wh_routes.total, internal, sum(walks)],
            "taxi": [taxi_routes.total, taxi_internal, loaded.kept, loaded.dropped],
        }

    def check(self, p: Pass, ref: Pass, checks: Checks) -> None:
        totals, ref_totals = self._totals(p), self._totals(ref)
        inst, routes, internal, walks = p.outputs["warehouse"]
        bad = route_problems(routes, inst, self.wh_fleet, closed=True)
        drift = abs(sum(walks) - (routes.total + internal))
        if drift > 1e-9:
            bad.append(f"expanded walk drifts {drift:.3g} from job-level + internal")
        if totals["warehouse"] != ref_totals["warehouse"]:
            bad.append("warehouse totals differ from the first pass")
        checks.op(bad, "warehouse pipeline")

        inst, routes, _, loaded, outliers = p.outputs["taxi"]
        bad = route_problems(routes, inst, self.taxi_fleet, closed=False)
        exp = self.expected
        got = (loaded.total_rows, loaded.kept, loaded.dropped, loaded.malformed, len(outliers))
        want = (exp["total"], exp["kept"], exp["dropped"], exp["malformed"], exp["outliers"])
        if got != want:
            bad.append(f"rows/kept/dropped/malformed/outliers {got} != generated {want}")
        if totals["taxi"] != ref_totals["taxi"]:
            bad.append("taxi totals differ from the first pass")
        checks.op(bad, "taxi pipeline")

    def digest(self, p: Pass) -> str:
        return hash_outputs(self._totals(p))

    def named(self, passes: list[Pass]) -> dict[str, tuple[float, str]]:
        return {
            "warehouse_s": (_median([p.seconds("warehouse.") for p in passes]), "s"),
            "taxi_s": (_median([p.seconds("taxi.") for p in passes]), "s"),
        }


    def kept_ratio(self, p: Pass) -> float:
        loaded = p.outputs["taxi"][3]
        return loaded.kept / loaded.total_rows
