#!/usr/bin/env python3
"""Warehouse transfer-job demo on a synthetic aisle grid.

Builds a grid layout with shelf stubs, draws random transfer jobs,
solves the job-level routing problem for a small robot fleet, and
verifies the expanded walk equals job-level length plus internal
transfer length.
"""

import argparse

import numpy as np

from bdmtsp.core import DynamicsScope, Fleet, build_schedule
from bdmtsp.solvers import bd_avh
from bdmtsp.warehouse import (
    AisleSpec,
    expand_route,
    grid_network,
    jobs_to_instance,
    occupancy,
    transfer_jobs,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=4)
    parser.add_argument("--cols", type=int, default=6)
    parser.add_argument("--jobs", type=int, default=10)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--visibility", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    net = grid_network(args.rows, args.cols, AisleSpec(dx=2.0, dy=3.0, shelf_len=1.2))
    shelves = [nid for nid in net.node_ids if nid.startswith("s")]
    rng = np.random.default_rng(args.seed)
    triples = []
    for k in range(args.jobs):
        src, dst = rng.choice(shelves, size=2, replace=False)
        triples.append((f"j{k}", str(src), str(dst)))
    jobs = transfer_jobs(net, triples)
    depot = "a0.0"

    instance, internal = jobs_to_instance(net, jobs, depot)
    fleet = Fleet(m=args.m)
    schedule = build_schedule(DynamicsScope.absolute(args.visibility), instance, args.m)
    routes = bd_avh(instance, fleet, schedule, closed=True)

    print(f"layout: {args.rows}x{args.cols} aisle grid, {len(net.nodes)} nodes, "
          f"{len(shelves)} shelf stubs")
    print(f"jobs: {len(jobs)}, occupancy {occupancy(len(jobs), len(shelves)):.3f}")
    print(f"job-level total {routes.total:.3f}, internal {internal:.3f}")
    grand = 0.0
    for i, route in enumerate(routes.routes):
        walk, length = expand_route(net, jobs, depot, route)
        grand += length
        names = [jobs[k - 1].id for k in route[1:]]
        print(f"  robot {i}: {', '.join(names) or '(idle)'}")
        print(f"    walk ({length:.3f}): {' -> '.join(walk)}")
    drift = abs(grand - (routes.total + internal))
    print(f"expanded walks total {grand:.3f}; job-level + internal "
          f"{routes.total + internal:.3f} (drift {drift:.2e})")
    return 0 if drift < 1e-9 else 1


if __name__ == "__main__":
    raise SystemExit(main())
