"""Public surface: exported names resolve and have callers, every caller
shares one registry, and the names the benchmark tracer rebinds exist."""

import argparse
import ast
import importlib
import pathlib
import sys

import pytest

import bdmtsp.harness
from bdmtsp import cam, cli, solvers

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

MODULES = ("assignment", "cam", "core", "geometry", "harness", "io", "solvers", "warehouse")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"bdmtsp.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def _referenced_names():
    """Every name that code outside the tests reads, calls or imports."""
    names = set()
    for path in (p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_exported_function_has_a_caller():
    # library code without a caller in the package, the scripts or the
    # benchmark gets one or goes; a test alone does not keep it
    referenced = _referenced_names()
    uncalled = []
    for name in MODULES:
        module = importlib.import_module(f"bdmtsp.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if callable(obj) and not isinstance(obj, type) and attr not in referenced:
                uncalled.append(f"{name}.{attr}")
    assert uncalled == []


def _choices(dest):
    """The choices of option ``dest`` per subcommand that has it."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        command: action.choices
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        if action.dest == dest
    }


def test_cli_algorithm_choices_come_from_the_registry():
    choices = _choices("algorithm")
    assert set(choices) == {"solve", "sweep", "warehouse", "taxi"}
    assert all(c == tuple(solvers.ALGORITHMS) for c in choices.values())


def test_cli_published_choices_come_from_the_models():
    choices = _choices("published")
    assert choices == {"cam-predict": ("3f", "9f", "16f")}
    assert {f"published_{c}" for c in choices["cam-predict"]} == set(cam.published_models())


def test_harness_indexes_the_solver_registry_itself():
    # perfbench/layers.py rebinds the entries of this dict to trace solves
    assert bdmtsp.harness._ALGORITHMS is solvers.ALGORITHMS


def _tracer(monkeypatch):
    """A fresh perfbench per-layer tracer, imported from its own directory."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "layers", raising=False)
    layers = importlib.import_module("layers")
    monkeypatch.delitem(sys.modules, "layers")
    return layers.Tracer()


def test_perfbench_tracer_rebinds_and_restores_every_target(monkeypatch):
    # the per-layer tracer wraps package attributes by name: a deleted
    # or renamed one would break traced benchmark runs
    tracer = _tracer(monkeypatch)
    targets = tracer._targets()

    def bound():
        return [
            owner.get(attr) if isinstance(owner, dict) else getattr(owner, attr, None)
            for owner, attr, _ in targets
        ]

    originals = bound()
    assert [attr for (_, attr, _), fn in zip(targets, originals) if fn is None] == []
    with tracer.installed():
        wrapped = bound()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(r is o for r, o in zip(bound(), originals))


def test_traced_sweep_sees_both_route_lengths_calls_per_solve(monkeypatch):
    # each solve measures its routes open (in the dispatch) and closed
    # (in harness._solve); the tracer sees the second call only if the
    # harness looks route_lengths up at call time
    tracer = _tracer(monkeypatch)
    configs = (cam.Configuration(2, 12, 3), cam.Configuration(3, 15, 4))
    spec = bdmtsp.harness.ExperimentSpec(configs=configs, reps=2, seed=1, workers=1)
    with tracer.installed():
        bdmtsp.harness.run_sweep(spec)
    assert tracer.calls["solvers.avh"] == 4
    assert tracer.calls["solvers.route_lengths"] == 2 * tracer.calls["solvers.avh"]
