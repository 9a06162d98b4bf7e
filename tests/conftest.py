import pathlib

import numpy as np
import pytest

from bdmtsp.core import RoutingInstance

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return DATA_DIR


def uniform_instance(n: int, seed: int, name: str = "test") -> RoutingInstance:
    """Ad-hoc uniform instance for tests that do not exercise the harness."""
    rng = np.random.default_rng(seed)
    return RoutingInstance(name=name, coords=rng.random((n, 2)))
