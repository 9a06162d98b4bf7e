import pathlib

import numpy as np
import pytest

from bdmtsp.core import RoutingInstance
from bdmtsp.warehouse import WarehouseNetwork

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return DATA_DIR


def uniform_instance(n: int, seed: int, name: str = "test") -> RoutingInstance:
    """Ad-hoc uniform instance for tests that do not exercise the harness."""
    rng = np.random.default_rng(seed)
    return RoutingInstance(name=name, coords=rng.random((n, 2)))


def layout_text(net) -> str:
    """Layout-file text for ``net``: its node lines, then its edge lines."""
    lines = [f"node {nid} {x:g} {y:g}" for nid, x, y in net.nodes]
    lines += [f"edge {a} {b} {w:g}" for a, b, w in net.edges]
    return "\n".join(lines) + "\n"


def random_net(rng, n, extra=None):
    """Random connected net: spanning tree plus a few chords."""
    nodes = tuple((f"n{i}", float(rng.random()), float(rng.random())) for i in range(n))
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((f"n{i}", f"n{j}", float(rng.uniform(0.5, 3.0))))
    for _ in range(extra if extra is not None else n):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.append((f"n{int(a)}", f"n{int(b)}", float(rng.uniform(0.5, 3.0))))
    return WarehouseNetwork(nodes=nodes, edges=tuple(edges))


def tie_net(seed, n):
    """Random tree plus chords with lengths of 1-3 and parallel edges.

    Half the nodes hang off the tree as leaves, some leaves on two
    parallel edges, so ties and contracted leaves are everywhere.
    """
    rng = np.random.default_rng(seed)
    nodes = tuple((f"n{i:02d}", 0.0, 0.0) for i in range(n))
    edges = []
    for i in range(1, n):
        w = float(rng.integers(1, 4))
        edges.append((f"n{i:02d}", f"n{int(rng.integers(0, i)):02d}", w))
        if i % 4 == 0:
            edges.append((edges[-1][1], edges[-1][0], float(rng.integers(1, 4))))
    for _ in range(n // 4):
        a, b = rng.choice(n // 2, size=2, replace=False)
        edges.append((f"n{int(a):02d}", f"n{int(b):02d}", float(rng.integers(1, 4))))
    return WarehouseNetwork(nodes=nodes, edges=tuple(edges))
