"""Benchmark for the bdmtsp package in this checkout.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``grid-sweep``   the 420-config sweep through ``run_sweep`` plus the fit;
* ``online-solve`` single instances solved one at a time by avh and cvh,
                   plus both published tables through ``reproduce_table``;
* ``adapters``     a warehouse job set and a taxi trip log, routed with avh.

With ``--trace 0`` the run times whole passes of the workload and the
last stdout line carries the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics;
the spans come from ``layers.py`` and are never installed while an
end-to-end number is taken.  The lines before the last one are a
readable report: environment, output digest and every named metric.

The package is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2 and prints no result.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("grid-sweep", "online-solve", "adapters")
SETUP_SAMPLES = 5  # this process plus four fresh ones

# End-to-end metrics in the result line, the same on every workload.
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s", "solves_per_s": "1/s"}

# Per-layer metrics in the result line: the ones every workload exercises
# (times) plus the counts that must repeat exactly at a fixed seed.  The
# report lines carry the rest, which only some workloads exercise.
LAYER_UNITS = {
    "assignment.calls": "count",
    "assignment.us_per_call.small": "us",
    "assignment.share": "ratio",
    "core.submatrix.calls": "count",
    "core.submatrix.us_per_call": "us",
    "core.build_schedule.ms": "ms",
    "solvers.avh.self_us_per_step": "us",
    "solvers.route_lengths.us_per_call": "us",
    "cam.lstsq.calls": "count",
    "io.haversine.calls": "count",
    "warehouse.shortest_path_route.calls": "count",
    "trace.overhead_ratio": "ratio",
}
REPORT_ONLY_UNITS = {
    "assignment.us_per_call.large": "us",
    "solvers.cvh.self_us_per_step": "us",
    "harness.instance_for.ms_per_call": "ms",
    "cam.feature_matrix.ms": "ms",
    "cam.backward_select.s": "s",
    "io.parse_tsplib.ms": "ms",
    "io.load_taxi_csv.ms": "ms",
    "io.trips_to_instance.s": "s",
    "geometry.detour_repair.ms": "ms",
    "warehouse.transfer_jobs.s": "s",
    "warehouse.jobs_to_instance.s": "s",
    "warehouse.expand_route.s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: smallest inputs, for the smoke test only",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(args):
    """Import the package and build the workload's inputs."""
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "grid-sweep":
        return workloads.GridSweep(args.seed, args.size)
    if args.workload == "online-solve":
        return workloads.OnlineSolve(args.seed, args.size, ROOT / "data")
    return workloads.Adapters(args.seed, args.size)


def setup_samples(args, own: float) -> list[float]:
    """Set-up seconds of this process plus fresh processes doing the same."""
    samples = [own]
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    import numpy
    import workloads

    return {
        "nproc": workloads.NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "workers": workloads.WORKERS if args.workload == "grid-sweep" else 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    }


def timed_passes(wl, seconds, checks, traced_step):
    """Run passes until the next one would overrun ``seconds``.

    ``traced_step`` is None for the end-to-end run; otherwise it is
    called after each untraced pass and returns the extra passes it made.
    """
    passes = []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        p = wl.run()
        passes.append(p)
        made = [p] if traced_step is None else [p] + traced_step(p)
        for q in made:
            wl.check(q, passes[0], checks)
            if q is not passes[0]:
                q.outputs = {}  # checked; keeping it would grow the peak RSS
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - lap) > seconds:
            return passes


def emit(line: str) -> None:
    print(line, flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bdmtsp" / "__init__.py").is_file():
        print(f"error: no bdmtsp package under {SRC}", file=sys.stderr)
        return 2
    try:
        wl = setup(args)
    except FileNotFoundError as exc:
        print(f"error: missing input {exc}", file=sys.stderr)
        return 2
    own_setup = time.perf_counter() - _T0
    if args.setup_probe:
        print(own_setup)
        return 0
    setup_s = statistics.median(setup_samples(args, own_setup))

    import workloads
    from layers import Tracer

    checks = workloads.Checks()
    emit(f"workload {args.workload}")
    emit("env " + json.dumps(environment(args), sort_keys=True))
    report: dict[str, tuple[float, str]] = {}
    try:
        if args.trace == 0:
            if args.workload == "online-solve":
                wl.count_steps()
            passes = timed_passes(wl, args.seconds, checks, None)
            if args.workload == "grid-sweep":
                wl.replay(passes[0], checks)
            metrics = {
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(),
                "pass_s": statistics.median(p.seconds() for p in passes),
                "solves_per_s": wl.solves_per_pass
                / statistics.median(p.solve_seconds() for p in passes),
            }
            report.update({k: (v, E2E_UNITS[k]) for k, v in metrics.items()})
            report["failed_ratio"] = (checks.failed / max(1, checks.attempted), "ratio")
            report.update(wl.named(passes))
            units = E2E_UNITS
        else:
            tracer = Tracer()
            ratios, speedups = [], []
            traced_passes = []

            def traced_step(untraced):
                made = []
                if args.workload == "grid-sweep":
                    # the pass above used the pool: add a serial reference
                    serial = wl.run(serial=True)
                    speedups.append(serial.seconds("sweep") / untraced.seconds("sweep"))
                    untraced = serial
                    made.append(serial)
                with tracer.installed():
                    traced = wl.run(serial=True)
                ratios.append(traced.seconds() / untraced.seconds())
                traced_passes.append(traced)
                made.append(traced)
                return made

            passes = timed_passes(wl, args.seconds, checks, traced_step)
            layer = tracer.summary(len(traced_passes))
            layer["trace.overhead_ratio"] = statistics.median(ratios)
            metrics = {k: layer[k] for k in LAYER_UNITS}
            report.update({k: (v, LAYER_UNITS[k]) for k, v in metrics.items()})
            report.update({k: (layer[k], u) for k, u in REPORT_ONLY_UNITS.items()})
            if speedups:
                report["harness.pool_speedup"] = (statistics.median(speedups), "ratio")
                report["harness.pool_workers"] = (workloads.WORKERS, "count")
            if args.workload == "adapters":
                report["io.load_taxi_csv.kept_ratio"] = (wl.kept_ratio(passes[0]), "ratio")
            units = LAYER_UNITS
    except Exception:  # one broken pass: report it, print no result
        traceback.print_exc()
        return 1
    emit(f"digest {wl.digest(passes[0])}")
    emit(f"passes {len(passes)}")
    for name, (value, unit) in report.items():
        emit(f"metric {name} {value!r} {unit}")
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    emit(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
