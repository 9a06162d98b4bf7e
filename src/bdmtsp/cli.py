"""Command-line entry points for solving, sweeping and reproduction."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import cam, geometry, io as bio, warehouse as wh
from .core import BdmtspError, Fleet, build_schedule
from .harness import (
    ExperimentSpec,
    TABLE_IDS,
    compare_sweep,
    parse_scope,
    reproduce_table,
    run_sweep,
)
from .solvers import ALGORITHMS


def _routes_payload(instance, routes):
    return {
        "instance": instance.name,
        "closed": routes.closed,
        "total": routes.total,
        "routes": [
            {"nodes": list(route), "length": length}
            for route, length in zip(routes.routes, routes.lengths)
        ],
    }


def _print_routes(instance, routes, out_path: str | None) -> None:
    payload = _routes_payload(instance, routes)
    text = json.dumps(payload, indent=2)
    if out_path:
        Path(out_path).write_text(text + "\n")
    print(f"instance {instance.name}: total {routes.total:.3f} "
          f"({'closed' if routes.closed else 'open'})")
    for i, (route, length) in enumerate(zip(routes.routes, routes.lengths)):
        stops = len(route) - 1
        print(f"  vehicle {i}: {stops} stops, length {length:.3f}")
    if out_path:
        print(f"wrote {out_path}")


def _route(args, instance, capacity, closed: bool):
    """Solve ``instance`` with the fleet, scope and algorithm in ``args``."""
    scope = parse_scope(args.scope)
    fleet = Fleet(m=args.m, capacity=capacity)
    schedule = build_schedule(scope, instance, args.m)
    return ALGORITHMS[args.algorithm](instance, fleet, schedule, closed=closed)


def _cmd_solve(args) -> int:
    instance = bio.parse_tsplib(bio.read_text(args.instance))
    routes = _route(args, instance, args.capacity, args.closed)
    _print_routes(instance, routes, args.out)
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    values = []
    for tok in text.split(","):
        if tok.strip():
            try:
                values.append(int(tok))
            except ValueError:
                raise BdmtspError(f"bad integer {tok.strip()!r} in list {text!r}") from None
    return tuple(values)


def _cmd_sweep(args) -> int:
    lists = (args.m_list, args.n_list, args.d_list)
    configs = cam.sweep_configs(*(_int_list(text) if text else None for text in lists))
    spec = ExperimentSpec(
        configs=configs,
        reps=args.reps,
        seed=args.seed,
        algorithm=args.algorithm,
        workers=args.workers,
    )
    if args.gap:
        open_gap, closed_gap = compare_sweep(spec)
        print(f"configs {len(configs)}, reps {args.reps}: "
              f"mean (closest - assignment)/assignment = {open_gap:+.4%} open, "
              f"{closed_gap:+.4%} closed")
        return 0
    result = run_sweep(spec)
    text = cam.sweep_to_csv(result)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(configs)} configurations x {args.reps} reps to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_cam_fit(args) -> int:
    result = cam.sweep_from_csv(bio.read_text(args.sweep))
    X = cam.feature_matrix(result.configs)
    p = X.shape[1]
    if args.keep is not None and not 1 <= args.keep <= p:
        raise BdmtspError(f"--keep must lie in 1..{p}, got {args.keep}")
    # the published models were fitted on closed walks
    print(f"fitting closed-walk means of {result.algorithm} "
          f"(seed {result.seed}, reps {result.reps})")
    steps = cam.backward_select(X, np.asarray(result.y_closed))
    print(f"{'features':>8} {'rmse':>9} {'mape':>8} {'cp':>9} {'bic':>10}")
    for step in steps:
        stats = step.stats
        print(
            f"{len(step.feature_idx):>8} {stats['rmse_std']:>9.3f} "
            f"{stats['mape']:>8.2%} {stats['cp']:>9.2f} {stats['bic']:>10.1f}"
        )
    if args.keep is not None:
        chosen = steps[args.keep - 1]  # one step per feature count, ascending
    else:
        chosen = min(steps, key=lambda s: s.stats["bic"])
    model = cam.step_model(chosen)
    if args.out:
        Path(args.out).write_text(cam.model_to_json(model) + "\n")
        print(f"kept {len(chosen.feature_idx)} features -> {args.out}")
    return 0


def _cmd_cam_predict(args) -> int:
    config = cam.Configuration(m=args.m, n=args.n, d=args.d)
    if args.model:
        model = cam.model_from_json(bio.read_text(args.model))
    else:
        model = cam.published_models()[f"published_{args.published}"]
    value = cam.predict(model, config)
    print(f"{model.provenance} @ (m={args.m}, n={args.n}, d={args.d}): {value:.4f}")
    return 0


def _cmd_warehouse(args) -> int:
    net = wh.parse_layout(bio.read_text(args.layout))
    jobs = wh.parse_jobs_csv(bio.read_text(args.jobs), net)
    instance, internal = wh.jobs_to_instance(net, jobs, args.depot)
    routes = _route(args, instance, args.capacity, closed=True)
    print(f"jobs {len(jobs)}, job-level total {routes.total:.3f}, "
          f"internal {internal:.3f}")
    grand = 0.0
    for i, route in enumerate(routes.routes):
        job_ids = [jobs[k - 1].id for k in route[1:]]
        walk, length = wh.expand_route(net, jobs, args.depot, route)
        grand += length
        print(f"  vehicle {i}: jobs {', '.join(job_ids) or '(none)'}; "
              f"walk length {length:.3f}")
    print(f"total walk length {grand:.3f} = job-level {routes.total:.3f} "
          f"+ internal {internal:.3f}")
    if args.storage_locations:
        print(f"occupancy {wh.occupancy(len(jobs), args.storage_locations):.4f}")
    return 0


def _cmd_taxi(args) -> int:
    result = bio.load_taxi_csv(bio.read_text(args.csv))
    print(f"rows {result.total_rows}: kept {result.kept}, "
          f"dropped {result.dropped}, malformed {result.malformed}")
    if result.kept == 0:
        print("no usable trips after filtering")
        return 1
    trips = list(result.trips)
    if args.repair_outliers:
        factor, outliers = geometry.detour_factor(trips)
        trips = geometry.repair_outliers(trips, factor)
        print(f"detour factor {factor:.4f}; repaired {len(outliers)} outliers")
    depot = geometry.GeoPoint(args.depot_lat, args.depot_lon)
    instance, internal = bio.trips_to_instance(trips, depot)
    routes = _route(args, instance, None, args.closed)
    print(f"trips {len(trips)}, m={args.m}: connecting distance {routes.total:.1f} km, "
          f"internal trip distance {internal:.1f} km")
    for i, (route, length) in enumerate(zip(routes.routes, routes.lengths)):
        print(f"  taxi {i}: {len(route) - 1} trips, connecting {length:.1f} km")
    return 0


def _cmd_reproduce(args) -> int:
    tables = TABLE_IDS if args.table == "all" else (args.table,)
    ok = True
    for table_id in tables:
        report = reproduce_table(table_id, args.data)
        print(report.to_text())
        print()
        ok = ok and report.ok
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdmtsp",
        description="Balanced dynamic multi-vehicle routing: solvers, sweeps, "
        "approximation models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance under one scope")
    p.add_argument("instance", help="TSPLIB-style instance file")
    p.add_argument("--m", type=int, required=True, help="fleet size")
    p.add_argument("--scope", required=True,
                   help="kind:value, e.g. absolute:5, relative:20%%, variable:3,4,1")
    p.add_argument("--algorithm", choices=tuple(ALGORITHMS), default="avh")
    p.add_argument("--capacity", type=int, default=None,
                   help="per-vehicle stop budget (default: balanced)")
    p.add_argument("--closed", action="store_true", help="return to the depot")
    p.add_argument("--out", help="write routes as JSON")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="uniform-instance sweep over (m, n, d)")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algorithm", choices=tuple(ALGORITHMS), default="avh")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--m-list", help="comma-separated fleet sizes (default 1..7)")
    p.add_argument("--n-list", help="comma-separated customer counts")
    p.add_argument("--d-list", help="comma-separated visibilities")
    p.add_argument("--gap", action="store_true",
                   help="report the mean paired closest-vs-assignment difference "
                   "on open and on closed walks instead of totals")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("cam-fit", help="fit approximation models to a sweep CSV's "
                       "closed-walk means")
    p.add_argument("--sweep", required=True, help="CSV from the sweep subcommand")
    p.add_argument("--keep", type=int, default=None,
                   help="feature count to persist (default: best BIC)")
    p.add_argument("--out", help="model JSON output path")
    p.set_defaults(func=_cmd_cam_fit)

    p = sub.add_parser("cam-predict", help="evaluate a model at (m, n, d)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", help="model JSON file")
    published = tuple(key.removeprefix("published_") for key in cam.published_models())
    source.add_argument("--published", choices=published,
                        help="use an embedded published model")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(func=_cmd_cam_predict)

    p = sub.add_parser("warehouse", help="solve transfer jobs on a layout")
    p.add_argument("--layout", required=True, help="layout text file")
    p.add_argument("--jobs", required=True, help="jobs CSV (id,source,dest)")
    p.add_argument("--depot", required=True, help="depot node id")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--scope", required=True)
    p.add_argument("--algorithm", choices=tuple(ALGORITHMS), default="avh")
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--storage-locations", type=int, default=None,
                   help="report occupancy against this slot count")
    p.set_defaults(func=_cmd_warehouse)

    p = sub.add_parser("taxi", help="filter trips and route the connecting legs")
    p.add_argument("--csv", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--scope", required=True)
    p.add_argument("--algorithm", choices=tuple(ALGORITHMS), default="avh")
    p.add_argument("--closed", action="store_true")
    p.add_argument("--depot-lat", type=float, default=19.3702)
    p.add_argument("--depot-lon", type=float, default=-99.1799)
    p.add_argument("--repair-outliers", action="store_true",
                   help="repair odometer outliers via the detour factor")
    p.set_defaults(func=_cmd_taxi)

    p = sub.add_parser("reproduce", help="recompute published tables")
    p.add_argument("--table", choices=TABLE_IDS + ("all",), default="all")
    p.add_argument("--data", default="data", help="instance directory")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BdmtspError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
