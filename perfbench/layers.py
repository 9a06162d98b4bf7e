"""Per-layer spans recorded from outside the package.

Each wrapped function is a module attribute that its callers look up at
call time, so rebinding the attribute is enough to put a span around
every call.  Spans nest: a span's self time is its duration minus the
durations of the wrapped spans it encloses.  Everything stays in memory
and is summarised after the traced pass.

The wrappers exist only inside ``Tracer.installed()``; untraced passes
run the package exactly as shipped.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

import bdmtsp.cam
import bdmtsp.core
import bdmtsp.geometry
import bdmtsp.harness
import bdmtsp.io
import bdmtsp.solvers
import bdmtsp.warehouse

# Assignment blocks wider than this are "large": the grid sweep never
# reveals more than 30 customers per step, online windows do.
SMALL_COLS = 30

_SOLVERS = ("solvers.avh", "solvers.cvh")


def _assignment_span(cost) -> str:
    return "assignment.small" if np.shape(cost)[1] <= SMALL_COLS else "assignment.large"


class Tracer:
    """Call counts plus inclusive and self nanoseconds per span name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        # submatrix calls = decision steps, split by the enclosing solver
        self.steps: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, child_ns] frames

    def wrap(self, name, fn):
        """``fn`` recorded under ``name`` (a string, or a function of the args)."""

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args[0])
            frame = [label, 0]
            self._stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - t0
                self._stack.pop()
                self.calls[label] += 1
                self.total_ns[label] += elapsed
                self.self_ns[label] += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
                if label == "core.submatrix":
                    for outer, _ in reversed(self._stack):
                        if outer in _SOLVERS:
                            self.steps[outer] += 1
                            break

        return traced

    def _targets(self):
        h = bdmtsp.harness
        algorithms = h._ALGORITHMS  # what run_sweep and reproduce_table call
        return [
            (bdmtsp.solvers, "solve_assignment", _assignment_span),
            (bdmtsp.solvers, "route_lengths", "solvers.route_lengths"),
            (bdmtsp.solvers, "bd_avh", "solvers.avh"),
            (bdmtsp.solvers, "bd_cvh", "solvers.cvh"),
            (algorithms, "avh", "solvers.avh"),
            (algorithms, "cvh", "solvers.cvh"),
            (bdmtsp.core.RoutingInstance, "submatrix", "core.submatrix"),
            (bdmtsp.core, "build_schedule", "core.build_schedule"),
            (h, "build_schedule", "core.build_schedule"),
            (h, "instance_for", "harness.instance_for"),
            (h, "parse_tsplib", "io.parse_tsplib"),
            (bdmtsp.cam, "feature_matrix", "cam.feature_matrix"),
            (bdmtsp.cam, "backward_select", "cam.backward_select"),
            (np.linalg, "lstsq", "cam.lstsq"),
            (bdmtsp.io, "load_taxi_csv", "io.load_taxi_csv"),
            (bdmtsp.io, "trips_to_instance", "io.trips_to_instance"),
            (bdmtsp.io, "haversine", "io.haversine"),
            (bdmtsp.geometry, "detour_factor", "geometry.detour_repair"),
            (bdmtsp.geometry, "repair_outliers", "geometry.detour_repair"),
            (bdmtsp.warehouse, "transfer_jobs", "warehouse.transfer_jobs"),
            (bdmtsp.warehouse, "jobs_to_instance", "warehouse.jobs_to_instance"),
            (bdmtsp.warehouse, "expand_route", "warehouse.expand_route"),
            (bdmtsp.warehouse, "shortest_path_route", "warehouse.shortest_path_route"),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target to its wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in self._targets():
                if isinstance(owner, dict):
                    original = owner[attr]
                    owner[attr] = self.wrap(name, original)
                else:
                    original = getattr(owner, attr)
                    setattr(owner, attr, self.wrap(name, original))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)

    # ------------------------------------------------------------ summary

    def summary(self, passes: int) -> dict[str, float]:
        """Layer metrics per traced pass, named as in the benchmark.

        Every traced pass repeats the same inputs, so per-pass counts are
        whole numbers that repeat exactly between runs at one seed.
        """

        def ms(name):
            return self.total_ns[name] / 1e6 / passes

        def us_per_call(name):
            calls = self.calls[name]
            return self.total_ns[name] / 1e3 / calls if calls else 0.0

        def count(name):
            return self.calls[name] // passes

        small, large = "assignment.small", "assignment.large"
        solve_ns = sum(self.total_ns[s] for s in _SOLVERS)
        assign_ns = self.total_ns[small] + self.total_ns[large]

        def self_us_per_step(solver):
            steps = self.steps[solver]
            return self.self_ns[solver] / 1e3 / steps if steps else 0.0

        return {
            "assignment.calls": count(small) + count(large),
            "assignment.us_per_call.small": us_per_call(small),
            "assignment.us_per_call.large": us_per_call(large),
            "assignment.share": assign_ns / solve_ns if solve_ns else 0.0,
            "core.submatrix.calls": count("core.submatrix"),
            "core.submatrix.us_per_call": us_per_call("core.submatrix"),
            "core.build_schedule.ms": ms("core.build_schedule"),
            "solvers.avh.self_us_per_step": self_us_per_step("solvers.avh"),
            "solvers.cvh.self_us_per_step": self_us_per_step("solvers.cvh"),
            "solvers.route_lengths.us_per_call": us_per_call("solvers.route_lengths"),
            "harness.instance_for.ms_per_call": us_per_call("harness.instance_for") / 1e3,
            "cam.feature_matrix.ms": ms("cam.feature_matrix"),
            "cam.backward_select.s": ms("cam.backward_select") / 1e3,
            "cam.lstsq.calls": count("cam.lstsq"),
            "io.parse_tsplib.ms": ms("io.parse_tsplib"),
            "io.load_taxi_csv.ms": ms("io.load_taxi_csv"),
            "io.trips_to_instance.s": ms("io.trips_to_instance") / 1e3,
            "io.haversine.calls": count("io.haversine"),
            "geometry.detour_repair.ms": ms("geometry.detour_repair"),
            "warehouse.transfer_jobs.s": ms("warehouse.transfer_jobs") / 1e3,
            "warehouse.jobs_to_instance.s": ms("warehouse.jobs_to_instance") / 1e3,
            "warehouse.expand_route.s": ms("warehouse.expand_route") / 1e3,
            "warehouse.shortest_path_route.calls": count("warehouse.shortest_path_route"),
        }
