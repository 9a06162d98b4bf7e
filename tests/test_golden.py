"""Golden bits: routes and totals that a speed-up must not move.

``golden.json`` pins, for a fixed set of solves, a digest of the routes
and the ``float.hex()`` of the open and closed totals, plus both totals
of every cell of the two reproduced tables.  Every value comes from
discrete outputs or correctly rounded IEEE arithmetic, so it is the same
on every conforming platform; no LAPACK output is pinned.

The solves cover every block form of the dispatch loop: every 7th grid
configuration at seed 1, rep 0 (list blocks and, at the larger windows,
ndarray blocks), the same instances with coordinates snapped to a coarse
lattice (ties everywhere), instances whose step windows reach
``assignment._WIDE`` in both orientations, and one seeded explicit-``dist``
instance.

A third part pins the warehouse pipeline: per layout, one digest of every
job's internal length, the job matrix bytes, the internal total, the
``avh`` routes and every expanded walk with its length.  The layouts are
a shelf grid, a tie-heavy tree with parallel edges and a net with random
edge lengths; the grid's lengths are binary-exact and sum without
rounding, so only the random net shows a change in summation order.

A fourth part pins the sweep means: the open and closed means of ``avh``
and ``cvh`` and both ``compare_sweep`` gaps on a 12-configuration slice
of the grid, 10 reps at seed 1.  A mean is a left-to-right sum divided by
the rep count.  At 2 reps no configuration's mean tells that sum from
``np.mean``'s pairwise one; at 10 reps 3 to 5 of the 12 means of each
policy and mode do, and so does the open gap, so a change of summation
order in ``run_sweep`` or ``compare_sweep`` fails here.

Regenerate the file only for a deliberate, named bit change::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np

from bdmtsp.cam import sweep_configs
from bdmtsp.core import DynamicsScope, Fleet, RoutingInstance, build_schedule
from bdmtsp.harness import (
    TABLE_IDS,
    ExperimentSpec,
    compare_sweep,
    instance_for,
    reproduce_table,
    run_sweep,
)
from bdmtsp.solvers import bd_avh, solve
from bdmtsp.warehouse import AisleSpec, expand_route, grid_network, jobs_to_instance, transfer_jobs

from conftest import random_net, tie_net

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
DATA_DIR = HERE.parent / "data"


def _lattice(instance: RoutingInstance, step: float = 1 / 16) -> RoutingInstance:
    """``instance`` with every coordinate moved to the middle of its lattice cell."""
    coords = (np.floor(instance.coords / step) + 0.5) * step
    return RoutingInstance(name=instance.name + "-lattice", coords=coords)


def _cases():
    """(label, instance, m, scope) of every pinned solve."""
    for ci, config in enumerate(sweep_configs()):
        if ci % 7:
            continue
        inst = instance_for(1, ci, 0, config.n)
        scope = DynamicsScope.absolute(config.d)
        yield f"grid {ci}", inst, config.m, scope
        yield f"grid {ci} lattice", _lattice(inst), config.m, scope
    # step windows of 4 x 200 columns, and of 125 vehicles x 3 customers
    yield "wide 4x200", instance_for(1, 0, 1, 500), 4, DynamicsScope.absolute(200)
    tall = _lattice(instance_for(1, 0, 2, 400), step=1 / 8)
    yield "tall 125x3 lattice", tall, 125, DynamicsScope.absolute(3)
    rng = np.random.default_rng(21)
    dist = rng.integers(1, 12, size=(60, 60)).astype(float)
    np.fill_diagonal(dist, 0.0)
    yield "explicit 60", RoutingInstance(name="explicit", dist=dist), 3, DynamicsScope.absolute(9)


def _routes_digest(routes) -> str:
    return hashlib.sha256(repr(routes).encode()).hexdigest()[:16]


def _warehouse_cases():
    """(label, network, job triples, depot, m) of every pinned warehouse run."""
    nets = {
        "shelf grid": grid_network(4, 6, AisleSpec(dx=2.0, dy=3.0, shelf_len=1.5)),
        "tie net": tie_net(4, 31),
        "random net": random_net(np.random.default_rng(5), 40, extra=8),
    }
    rng = np.random.default_rng(22)
    for label, net in nets.items():
        ids = net.node_ids
        triples = []
        for k in range(24):
            a, b = rng.choice(len(ids), size=2, replace=False)
            triples.append((f"j{k}", ids[int(a)], ids[int(b)]))
        yield label, net, triples, ids[int(rng.integers(len(ids)))], 3


def warehouse_digests() -> dict:
    digests = {}
    for label, net, triples, depot, m in _warehouse_cases():
        jobs = transfer_jobs(net, triples)
        instance, internal = jobs_to_instance(net, jobs, depot)
        schedule = build_schedule(DynamicsScope.absolute(4), instance, m)
        routes = bd_avh(instance, Fleet(m=m), schedule, closed=True).routes
        walks = [expand_route(net, jobs, depot, route) for route in routes]
        bits = (
            [job.internal_len.hex() for job in jobs],
            instance.dist.tobytes().hex(),
            internal.hex(),
            routes,
            [(walk, length.hex()) for walk, length in walks],
        )
        digests[label] = hashlib.sha256(repr(bits).encode()).hexdigest()[:16]
    return digests


SWEEP_CONFIGS = sweep_configs(ms=(1, 3, 7), ns=(50, 100), ds=(5, 30))


def sweep_bits() -> dict:
    """``float.hex()`` of the pinned slice's means and gaps, by label."""
    bits = {}
    for name in ("avh", "cvh"):
        spec = ExperimentSpec(configs=SWEEP_CONFIGS, reps=10, seed=1, algorithm=name)
        result = run_sweep(spec)
        for c, y, y_closed in zip(result.configs, result.y, result.y_closed):
            bits[f"{name} m={c.m} n={c.n} d={c.d}"] = f"{y.hex()} {y_closed.hex()}"
    gaps = compare_sweep(ExperimentSpec(configs=SWEEP_CONFIGS, reps=10, seed=1))
    bits["gap"] = " ".join(gap.hex() for gap in gaps)
    return bits


def compute() -> dict:
    solves = {}
    for label, inst, m, scope in _cases():
        schedule = build_schedule(scope, inst, m)
        for name in ("avh", "cvh"):
            open_, closed = solve(name, inst, Fleet(m=m), schedule)
            solves[f"{label} {name}"] = (
                f"{_routes_digest(open_.routes)} {open_.total.hex()} {closed.total.hex()}"
            )
    cells = {}
    for table_id in TABLE_IDS:
        for row in reproduce_table(table_id, DATA_DIR).rows:
            key = (
                f"{table_id} {row.instance} m={row.m} "
                f"{row.scope.kind}={row.scope.value!r} {row.algorithm}"
            )
            cells[key] = f"{row.computed_open.hex()} {row.computed_closed.hex()}"
    return {"solves": solves, "cells": cells}


def test_routes_and_total_bits_match_the_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = compute()
    for part in ("solves", "cells"):
        moved = [k for k in want[part] if got[part].get(k) != want[part][k]]
        assert got[part].keys() == want[part].keys()
        assert not moved, f"{len(moved)} {part} moved, first {moved[:5]}"


def test_warehouse_bits_match_the_golden_file():
    assert warehouse_digests() == json.loads(GOLDEN.read_text())["warehouse"]


def test_sweep_mean_bits_match_the_golden_file():
    want = json.loads(GOLDEN.read_text())["sweep"]
    got = sweep_bits()
    assert got.keys() == want.keys()
    moved = [k for k in want if got[k] != want[k]]
    assert not moved, f"{len(moved)} sweep means moved, first {moved[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    golden = {**compute(), "warehouse": warehouse_digests(), "sweep": sweep_bits()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
