"""Smoke test of the benchmark: each workload at its smallest size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Named metrics each workload's report lines must carry besides the
# result-line ones.
NAMED = {
    "grid-sweep": ("failed_ratio", "sweep_solves_per_s", "fit_s"),
    "online-solve": (
        "failed_ratio", "avh_decision_us", "cvh_decision_us", "solve_ms_p50",
        "solve_ms_tail", "solve_ms_tail.percentile", "solve_ms_tail.samples",
        "reproduce_s",
    ),
    "adapters": ("failed_ratio", "warehouse_s", "taxi_s"),
}
TRACED_NAMED = {
    "grid-sweep": ("harness.pool_speedup", "cam.backward_select.s"),
    "online-solve": ("solvers.cvh.self_us_per_step", "io.parse_tsplib.ms"),
    "adapters": ("io.load_taxi_csv.kept_ratio", "warehouse.expand_route.s"),
}


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "smoke",
        ],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    report = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            report[name] = (float(value), unit)
    expected = TRACED_NAMED[workload] if trace else NAMED[workload]
    for name in expected + tuple(result["metrics"]):
        assert name in report and report[name][1], name
    if not trace:
        assert report["failed_ratio"][0] == 0.0
        assert all(report[m["name"]][0] > 0 for m in declared)


def test_refuses_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "adapters", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
