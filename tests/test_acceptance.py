"""Acceptance gate: every release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The statistical criteria use fixed seeds so the gate is deterministic;
tolerances are stated inline next to each check.
"""

import math
import os
import time

import numpy as np
import pytest

import reference
from test_cam import TABLE_3F, TABLE_9F, TABLE_16F

from bdmtsp.assignment import solve_assignment
from bdmtsp.cam import (
    PUBLISHED_3F,
    PUBLISHED_9F,
    PUBLISHED_16F,
    Configuration,
    backward_select,
    feature_matrix,
    predict,
    sweep_configs,
)
from bdmtsp.core import DynamicsScope, Fleet, build_schedule
from bdmtsp.geometry import GeoPoint, TripRecord, detour_factor, haversine
from bdmtsp.harness import ExperimentSpec, compare_sweep, gen_uniform, run_sweep
from bdmtsp.harness import reproduce_table
from bdmtsp.solvers import bd_avh, bd_cvh
from bdmtsp.warehouse import (
    AisleSpec,
    expand_route,
    grid_network,
    jobs_to_instance,
    transfer_jobs,
)

_WORKERS = min(4, os.cpu_count() or 1)


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{state}] {label}: {detail}")
    assert ok, f"criterion {num} failed: {label} ({detail})"


def test_criterion_01_assignment_optimality():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        costs = rng.uniform(0.0, 100.0, size=(rows, cols))
        got = solve_assignment(costs)
        want = reference.brute_force_assignment(costs)
        if got.cost != want.cost:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "assignment equals brute force on 1000 random matrices",
        mismatches == 0 and elapsed < 10.0,
        f"{mismatches} cost mismatches, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_02_published_model_prediction():
    value = predict(PUBLISHED_3F, Configuration(3, 100, 15))
    in_band = abs(value - 18.85) <= 0.05
    tables_ok = (
        PUBLISHED_3F.terms == TABLE_3F
        and PUBLISHED_9F.terms == TABLE_9F
        and PUBLISHED_16F.terms == TABLE_16F
    )
    _verdict(
        2,
        "3-feature model predicts 18.85 +/- 0.05 at (3,100,15); "
        "coefficient tables digit-for-digit",
        in_band and tables_ok,
        f"prediction {value:.4f}; tables match second transcription: {tables_ok}",
    )


def test_criterion_03_degeneracy():
    full_matches = 0
    unit_matches = 0
    seeds = 50
    for seed in range(seeds):
        inst = gen_uniform(40, np.random.SeedSequence((3000, seed)))
        m = 3
        fleet = Fleet(m=m)
        full = build_schedule(DynamicsScope.relative(1.0), inst, m)
        cvh_routes = bd_cvh(inst, fleet, full).routes
        static = reference.static_closest_vehicle(
            inst.full_matrix(), inst.depot, m, fleet.capacity_for(inst.n)
        )
        if [list(r) for r in cvh_routes] == static:
            full_matches += 1
        unit = build_schedule(DynamicsScope.absolute(1), inst, m)
        if bd_avh(inst, fleet, unit).routes == bd_cvh(inst, fleet, unit).routes:
            unit_matches += 1
    _verdict(
        3,
        "full visibility collapses to static closest-vehicle; "
        "unit visibility makes the policies identical",
        full_matches == seeds and unit_matches == seeds,
        f"{full_matches}/{seeds} static matches, {unit_matches}/{seeds} unit matches",
    )


def test_criterion_04_balance():
    spread_ok = True
    cap_ok = True
    worst_wide = 0
    worst_narrow = 0
    for m in range(1, 8):
        for d in (1, 3, 5, 10, 15):
            for n in (30, 61, 100):
                if d > n - 1:
                    continue
                inst = gen_uniform(n, np.random.SeedSequence((4000, m, d, n)))
                fleet = Fleet(m=m)
                sched = build_schedule(DynamicsScope.absolute(d), inst, m)
                cap = fleet.capacity_for(n)
                for algo in (bd_avh, bd_cvh):
                    counts = [len(r) - 1 for r in algo(inst, fleet, sched).routes]
                    spread = max(counts) - min(counts)
                    cap_ok = cap_ok and max(counts) <= cap
                    if d >= m:
                        worst_wide = max(worst_wide, spread)
                        spread_ok = spread_ok and spread <= 1
                    else:
                        worst_narrow = max(worst_narrow, spread)
    _verdict(
        4,
        "per-vehicle stop counts differ by <= 1 whenever visibility >= fleet",
        spread_ok and cap_ok,
        f"worst spread {worst_wide} at d>=m; stop budget respected in all runs "
        f"(d<m spread up to {worst_narrow}, bounded by the budget, reported "
        f"not gated)",
    )


def test_criterion_05_upper_bound():
    bound_ok = True
    worst_ratio = 0.0
    ns = tuple(range(50, 501, 50))
    ds = (1, 5, 30)
    for seed in range(100):
        n = ns[seed % len(ns)]
        d = ds[seed % len(ds)]
        inst = gen_uniform(n, np.random.SeedSequence((5000, seed)))
        sched = build_schedule(DynamicsScope.absolute(d), inst, 1)
        total = bd_avh(inst, Fleet(m=1), sched).total
        bound = (n + 1) * math.sqrt(2.0)
        worst_ratio = max(worst_ratio, total / bound)
        bound_ok = bound_ok and total <= bound
    _verdict(
        5,
        "single-vehicle open totals stay within (n+1) * sqrt(2)",
        bound_ok,
        f"100 instances; worst total/bound ratio {worst_ratio:.3f}",
    )


def test_criterion_06_unit_visibility_peak():
    ok = True
    details = []
    for m in (2, 3, 4):
        means = {}
        for dam in (1.0, 2.0, 4.0, 8.0):
            totals = []
            for seed in range(20):
                inst = gen_uniform(100, np.random.SeedSequence((6000, m, seed)))
                sched = build_schedule(DynamicsScope.m_absolute(dam), inst, m)
                totals.append(bd_avh(inst, Fleet(m=m), sched).total)
            means[dam] = float(np.mean(totals))
        peak = all(means[1.0] >= means[k] for k in (2.0, 4.0, 8.0))
        ok = ok and peak
        details.append(f"m={m}: {means[1.0]:.1f} >= " +
                       "/".join(f"{means[k]:.1f}" for k in (2.0, 4.0, 8.0)))
    _verdict(
        6,
        "mean total peaks at one visible customer per vehicle",
        ok,
        "; ".join(details),
    )


def test_criterion_07_policy_gap_band():
    configs = tuple(
        Configuration(m, n, d)
        for m in range(1, 8)
        for n in (50, 100, 150)
        for d in (5, 10, 15, 20, 25, 30)
    )
    spec = ExperimentSpec(configs=configs, reps=5, seed=2026, workers=_WORKERS)
    gap = compare_sweep(spec)
    ok = 0.005 <= gap <= 0.035
    _verdict(
        7,
        "mean closest-vs-assignment gap in [0.5%, 3.5%] on a desk-scale sweep",
        ok,
        f"{len(configs)} configs x 5 reps: gap {gap:+.3%}",
    )


def test_criterion_08_sweep_and_fit_quality():
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        configs=sweep_configs(), reps=10, seed=2026, workers=_WORKERS
    )
    result = run_sweep(spec)
    sweep_s = time.perf_counter() - t0
    X = feature_matrix(result.configs)
    y = np.asarray(result.y)
    t0 = time.perf_counter()
    steps = backward_select(X, y)
    fit_s = time.perf_counter() - t0
    by_count = {len(s.feature_idx): s for s in steps}
    mape64 = by_count[64].stats["mape"]
    mape3 = by_count[3].stats["mape"]
    ok = mape64 <= 0.05 and mape3 <= 0.15 and sweep_s <= 900.0 and fit_s <= 5.0
    _verdict(
        8,
        "regenerated sweep fits: 64-feature MAPE <= 5%, 3-feature <= 15%, "
        "sweep <= 15min, fit <= 5s",
        ok,
        f"64f {mape64:.2%}, 3f {mape3:.2%}; sweep {sweep_s:.1f}s, fit {fit_s:.2f}s",
    )


def test_criterion_09_table_reproduction(data_dir):
    reports = [
        reproduce_table("set1-relative", data_dir),
        reproduce_table("set2-absolute", data_dir),
    ]
    ok = all(r.ok and not r.missing for r in reports)
    gate_bits = []
    for report in reports:
        for label, passed, err in report.gates:
            gate_bits.append(f"{label}: {err:+.2%} {'ok' if passed else 'OUT'}")
    worst = max(
        (abs(row.best_rel_err) for r in reports for row in r.rows), default=math.nan
    )
    _verdict(
        9,
        "published totals reproduce within tolerance "
        "(closed walks, file order, lowest-index ties)",
        ok,
        "; ".join(gate_bits) + f"; worst best-mode error across all "
        f"{sum(len(r.rows) for r in reports)} cells {worst:.2%}",
    )


def test_criterion_10_warehouse_pipeline():
    rng = np.random.default_rng(1010)
    matrix_ok = True
    expand_ok = True
    worst_drift = 0.0
    for trial in range(5):
        rows, cols = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        net = grid_network(rows, cols, AisleSpec(dx=2.0, dy=3.0, shelf_len=1.5))
        shelves = [nid for nid in net.node_ids if nid.startswith("s")]
        triples = []
        for k in range(int(rng.integers(3, 7))):
            src, dst = rng.choice(shelves, size=2, replace=False)
            triples.append((f"j{k}", str(src), str(dst)))
        jobs = transfer_jobs(net, triples)
        depot = "a0.0"
        instance, internal = jobs_to_instance(net, jobs, depot)
        oracle = reference.floyd_warshall(net.node_ids, net.edges)
        # entrywise: row origin is the depot or a job's destination,
        # column target is the depot or a job's source
        origins = [depot] + [j.dest for j in jobs]
        targets = [depot] + [j.source for j in jobs]
        for i, origin in enumerate(origins):
            for j, target in enumerate(targets):
                if i == j:
                    continue
                if abs(instance.distance(i, j) - oracle[origin][target]) > 1e-9:
                    matrix_ok = False
        sched = build_schedule(DynamicsScope.relative(1.0), instance, 1)
        routes = bd_avh(instance, Fleet(m=1), sched, closed=True)
        walk_total = 0.0
        for route in routes.routes:
            _, length = expand_route(net, jobs, depot, route, closed=True)
            walk_total += length
        drift = abs(walk_total - (routes.total + internal))
        worst_drift = max(worst_drift, drift)
        expand_ok = expand_ok and drift <= 1e-9
    _verdict(
        10,
        "job matrix equals the all-pairs oracle; expanded walk equals "
        "job-level plus internal length",
        matrix_ok and expand_ok,
        f"5 random grids; worst expansion drift {worst_drift:.2e}",
    )


def test_criterion_11_geometry():
    rng = np.random.default_rng(1111)
    worst_rel = 0.0
    for _ in range(1000):
        a = GeoPoint(rng.uniform(19.0, 20.0), rng.uniform(-99.5, -98.0))
        b = GeoPoint(rng.uniform(19.0, 20.0), rng.uniform(-99.5, -98.0))
        got = haversine(a, b)
        want = reference.law_of_cosines_km(a.lat, a.lon, b.lat, b.lon)
        if want > 0:
            worst_rel = max(worst_rel, abs(got - want) / want)
    hav_ok = worst_rel <= 1e-6

    def trip(ratio):
        start = GeoPoint(19.4, -99.15)
        end = GeoPoint(19.4, -99.15 + 0.02)
        return TripRecord(pickup=start, dropoff=end,
                          recorded_km=ratio * haversine(start, end))

    factor, outliers = detour_factor([trip(1.2), trip(1.4), trip(2.0), trip(5.0)])
    detour_ok = factor == (1.2 + 1.4 + 2.0) / 3 and outliers == (3,)
    _verdict(
        11,
        "great-circle distances match the law-of-cosines oracle; "
        "detour factor matches hand arithmetic",
        hav_ok and detour_ok,
        f"worst relative gap {worst_rel:.2e} over 1000 pairs; "
        f"factor {factor:.6f}, outliers {outliers}",
    )
