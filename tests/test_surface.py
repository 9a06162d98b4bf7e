"""Public surface: exported names resolve and every caller shares one registry."""

import argparse
import importlib

import pytest

import bdmtsp.harness
from bdmtsp import cli, solvers

MODULES = ("assignment", "cam", "core", "geometry", "harness", "io", "solvers", "warehouse")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"bdmtsp.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_cli_algorithm_choices_come_from_the_registry():
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    choices = {
        command: action.choices
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        if action.dest == "algorithm"
    }
    assert set(choices) == {"solve", "sweep", "warehouse", "taxi"}
    assert all(c == tuple(solvers.ALGORITHMS) for c in choices.values())


def test_harness_indexes_the_solver_registry_itself():
    # perfbench/layers.py rebinds the entries of this dict to trace solves
    assert bdmtsp.harness._ALGORITHMS is solvers.ALGORITHMS
