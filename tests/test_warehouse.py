import math

import numpy as np
import pytest

from bdmtsp.core import BdmtspError, DynamicsScope, Fleet, ParseError, build_schedule
from bdmtsp.solvers import bd_avh
from bdmtsp.warehouse import (
    AisleSpec,
    TransferJob,
    WarehouseNetwork,
    _dijkstra,
    expand_route,
    grid_network,
    jobs_to_instance,
    occupancy,
    parse_jobs_csv,
    parse_layout,
    shortest_path_route,
    transfer_jobs,
)

import reference
from conftest import layout_text, random_net, tie_net


PATH_NET = WarehouseNetwork(
    nodes=(("a", 0.0, 0.0), ("b", 2.0, 0.0), ("c", 5.0, 0.0)),
    edges=(("a", "b", 2.0), ("b", "c", 3.0)),
)


def test_shortest_path_identity_and_chain():
    assert shortest_path_route(PATH_NET, "a", "a")[1] == 0.0
    assert shortest_path_route(PATH_NET, "a", "c")[1] == 5.0
    assert shortest_path_route(PATH_NET, "c", "a")[1] == 5.0


def test_shortest_path_route_nodes():
    walk, length = shortest_path_route(PATH_NET, "a", "c")
    assert walk == ("a", "b", "c")
    assert length == 5.0


@pytest.mark.parametrize(
    "target,links",
    [
        # b's chain breaks at once; c, the last rank, leads to a, so a walk
        # that read prev[-1] would reach a with a wrong walk
        ("b", {"b": None, "c": "a"}),
        # c and b lead to each other and never to a
        ("c", {"c": "b", "b": "c"}),
    ],
)
def test_shortest_path_route_rejects_a_broken_predecessor_chain(monkeypatch, target, links):
    rank = PATH_NET.rank_of
    prev = [-1] * 3
    for node, up in links.items():
        prev[rank(node)] = -1 if up is None else rank(up)
    monkeypatch.setattr("bdmtsp.warehouse._dijkstra", lambda *args: ([0.0] * 3, prev))
    with pytest.raises(BdmtspError, match="no predecessor chain"):
        shortest_path_route(PATH_NET, "a", target)


def test_shortest_path_unknown_node():
    with pytest.raises(BdmtspError):
        shortest_path_route(PATH_NET, "a", "zz")[1]
    with pytest.raises(BdmtspError):
        shortest_path_route(PATH_NET, "zz", "a")[1]


def test_disconnected_network_rejected_at_construction():
    with pytest.raises(BdmtspError, match="disconnected"):
        WarehouseNetwork(
            nodes=(("a", 0, 0), ("b", 1, 0), ("c", 9, 9)),
            edges=(("a", "b", 1.0),),
        )


def test_network_validation():
    with pytest.raises(BdmtspError):
        WarehouseNetwork(nodes=(("a", 0, 0), ("a", 1, 1)), edges=())
    with pytest.raises(BdmtspError):
        WarehouseNetwork(nodes=(("a", 0, 0), ("b", 1, 1)), edges=(("a", "b", -2.0),))
    with pytest.raises(BdmtspError):
        WarehouseNetwork(nodes=(("a", 0, 0), ("b", 1, 1)), edges=(("a", "zz", 1.0),))
    with pytest.raises(BdmtspError):
        WarehouseNetwork(nodes=(("a", 0, 0), ("b", 1, 1)), edges=(("a", "a", 1.0),))


def test_shortest_paths_match_floyd_warshall_oracle():
    rng = np.random.default_rng(17)
    for trial in range(6):
        n = int(rng.integers(5, 61))
        net = random_net(rng, n)
        oracle = reference.floyd_warshall(net.node_ids, net.edges)
        for a in net.node_ids[:: max(1, n // 7)]:
            for b in net.node_ids:
                assert shortest_path_route(net, a, b)[1] == pytest.approx(
                    oracle[a][b], rel=1e-12, abs=1e-12
                )


def test_transfer_job_validation():
    with pytest.raises(BdmtspError):
        TransferJob(id="1", source="a", dest="a", internal_len=3.0, walk=("a",))
    with pytest.raises(BdmtspError):
        TransferJob(id="1", source="a", dest="b", internal_len=0.0, walk=("a", "b"))


@pytest.mark.parametrize(
    "walk", [("b", "c"), ("a", "b"), ()], ids=["wrong start", "wrong end", "empty"]
)
def test_transfer_job_walk_runs_from_source_to_dest(walk):
    with pytest.raises(BdmtspError, match="walk must run from source to destination"):
        TransferJob(id="1", source="a", dest="c", internal_len=5.0, walk=walk)


def test_transfer_jobs_keep_their_own_walks():
    jobs = transfer_jobs(PATH_NET, [("j1", "c", "a"), ("j2", "b", "c")])
    assert [(job.walk, job.internal_len) for job in jobs] == [
        (("c", "b", "a"), 5.0),
        (("b", "c"), 3.0),
    ]


def test_jobs_to_instance_adjacent_jobs_have_zero_link():
    jobs = transfer_jobs(PATH_NET, [("j1", "a", "b"), ("j2", "b", "c")])
    inst, internal = jobs_to_instance(PATH_NET, jobs, depot="a")
    # job 1 ends where job 2 starts
    assert inst.dist[1, 2] == 0.0
    assert internal == 2.0 + 3.0
    assert inst.dist[0, 1] == 0.0  # depot to source of job 1 (same node)
    assert inst.dist[0, 2] == 2.0
    assert inst.dist[1, 0] == 2.0  # dest of job 1 back to depot
    assert inst.dist[2, 0] == 5.0


def test_jobs_to_instance_matches_pairwise_oracle():
    rng = np.random.default_rng(23)
    for trial in range(4):
        n = int(rng.integers(8, 40))
        net = random_net(rng, n)
        oracle = reference.floyd_warshall(net.node_ids, net.edges)
        triples = []
        for k in range(int(rng.integers(2, 7))):
            a, b = rng.choice(n, size=2, replace=False)
            triples.append((f"j{k}", f"n{int(a)}", f"n{int(b)}"))
        jobs = transfer_jobs(net, triples)
        depot = f"n{int(rng.integers(0, n))}"
        inst, internal = jobs_to_instance(net, jobs, depot)
        count = len(jobs) + 1
        assert inst.dist.shape == (count, count)
        for j in range(count):
            for k in range(count):
                if j == k:
                    expect = 0.0
                elif j == 0:
                    expect = oracle[depot][jobs[k - 1].source]
                elif k == 0:
                    expect = oracle[jobs[j - 1].dest][depot]
                else:
                    expect = oracle[jobs[j - 1].dest][jobs[k - 1].source]
                assert inst.dist[j, k] == pytest.approx(expect, rel=1e-12, abs=1e-12)
        assert internal == pytest.approx(sum(j.internal_len for j in jobs))


def test_jobs_to_instance_is_asymmetric_in_general():
    net = grid_network(3, 4, AisleSpec(dx=2.0, dy=3.0))
    jobs = transfer_jobs(net, [("1", "a0.0", "a1.0"), ("2", "a0.3", "a0.2")])
    inst, _ = jobs_to_instance(net, jobs, depot="a1.1")
    # dest1 -> source2 is a long diagonal, dest2 -> source1 a short hop
    assert inst.dist[1, 2] == pytest.approx(3.0 + 3 * 2.0)
    assert inst.dist[2, 1] == pytest.approx(2 * 2.0)
    assert inst.dist[1, 2] != inst.dist[2, 1]


def test_jobs_to_instance_rejects_stale_internal_length():
    jobs = (TransferJob(id="x", source="a", dest="c", internal_len=4.0, walk=("a", "b", "c")),)
    with pytest.raises(BdmtspError, match="internal length"):
        jobs_to_instance(PATH_NET, jobs, depot="a")


def test_jobs_to_instance_accepts_long_paths_summed_in_reverse():
    # A 200-node path at millimetre scale: the reverse tree sums the same
    # edges in the other order, and the two sums differ by about 3e-9.
    rng = np.random.default_rng(1)
    n = 200
    nodes = tuple((f"p{i:03d}", float(i), 0.0) for i in range(n))
    edges = tuple(
        (f"p{i:03d}", f"p{i + 1:03d}", float(rng.uniform(5e3, 3e4))) for i in range(n - 1)
    )
    net = WarehouseNetwork(nodes=nodes, edges=edges)
    jobs = transfer_jobs(net, [("j", "p000", "p199")])
    assert abs(shortest_path_route(net, "p199", "p000")[1] - jobs[0].internal_len) > 1e-9
    _, internal = jobs_to_instance(net, jobs, depot="p100")
    assert internal == jobs[0].internal_len


def test_jobs_to_instance_runs_one_tree_per_distinct_start(monkeypatch):
    # jobs 1 and 2 end at s1.1 and job 4 at the depot, so those rows share
    # their labels; row 3 still reads s1.1 -> s0.1, not row 2's zero
    net = grid_network(3, 4, AisleSpec(shelf_len=1.0))
    triples = [
        ("1", "s0.0", "s1.1"), ("2", "s0.1", "s1.1"), ("3", "s1.1", "s0.0"), ("4", "s2.3", "a0.0")
    ]
    jobs = transfer_jobs(net, triples)
    runs = []
    real = _dijkstra

    def counted(net, source, targets=None):
        runs.append(net.ranked_ids[source])
        return real(net, source, targets)

    monkeypatch.setattr("bdmtsp.warehouse._dijkstra", counted)
    inst, _ = jobs_to_instance(net, jobs, depot="a0.0")
    assert sorted(runs) == ["a0.0", "s0.0", "s1.1"]
    ends = ["a0.0"] + [source for _, source, _ in triples]
    starts = ["a0.0"] + [dest for _, _, dest in triples]
    monkeypatch.setattr("bdmtsp.warehouse._dijkstra", real)
    expect = [
        [0.0 if j == k else shortest_path_route(net, s, e)[1] for k, e in enumerate(ends)]
        for j, s in enumerate(starts)
    ]
    assert inst.dist.tolist() == expect
    assert inst.dist[3, 2] == 1.0 + 2.0 + 1.0


def test_jobs_to_instance_requires_jobs():
    with pytest.raises(BdmtspError):
        jobs_to_instance(PATH_NET, (), depot="a")


def test_solve_and_expand_recovers_exact_walk_length():
    rng = np.random.default_rng(31)
    for trial in range(5):
        net = grid_network(4, 5, AisleSpec(dx=2.0, dy=2.5, shelf_len=1.0))
        ids = net.node_ids
        triples = []
        for k in range(6):
            a, b = rng.choice(len(ids), size=2, replace=False)
            triples.append((f"j{k}", ids[int(a)], ids[int(b)]))
        jobs = transfer_jobs(net, triples)
        depot = ids[int(rng.integers(0, len(ids)))]
        inst, internal = jobs_to_instance(net, jobs, depot)
        sched = build_schedule(DynamicsScope.relative(1.0), inst, m=1)
        out = bd_avh(inst, Fleet(m=1), sched, closed=True)
        walk, walk_len = expand_route(net, jobs, depot, out.routes[0])
        assert walk[0] == depot and walk[-1] == depot
        assert walk_len == pytest.approx(out.total + internal, abs=1e-9)


def test_expand_route_single_job_by_hand():
    jobs = transfer_jobs(PATH_NET, [("j1", "b", "c")])
    walk, length = expand_route(PATH_NET, jobs, depot="a", route=(0, 1))
    assert walk == ("a", "b", "c", "b", "a")
    assert length == 2.0 + 3.0 + 5.0


def test_expand_route_validation():
    jobs = transfer_jobs(PATH_NET, [("j1", "b", "c")])
    with pytest.raises(BdmtspError):
        expand_route(PATH_NET, jobs, depot="a", route=(1,))
    with pytest.raises(BdmtspError):
        expand_route(PATH_NET, jobs, depot="a", route=(0, 5))


# ------------------------------------------------------------------ grids


def test_grid_corridor():
    net = grid_network(1, 2)
    assert len(net.nodes) == 2
    assert len(net.edges) == 1
    assert shortest_path_route(net, "a0.0", "a0.1")[1] == 2.0


def test_grid_closed_form_counts():
    net = grid_network(3, 3)
    assert len(net.nodes) == 9
    assert len(net.edges) == 3 * 2 + 3 * 2
    shelf = grid_network(3, 3, AisleSpec(shelf_len=0.8))
    assert len(shelf.nodes) == 18
    assert len(shelf.edges) == 12 + 9
    assert shortest_path_route(shelf, "s0.0", "a0.0")[1] == 0.8


def test_grid_distances_are_rectilinear():
    net = grid_network(4, 6, AisleSpec(dx=1.5, dy=2.0))
    assert shortest_path_route(net, "a0.0", "a3.5")[1] == pytest.approx(5 * 1.5 + 3 * 2.0)


def test_grid_rejects_degenerate():
    with pytest.raises(BdmtspError):
        grid_network(0, 5)
    with pytest.raises(BdmtspError):
        grid_network(1, 1)
    with pytest.raises(BdmtspError):
        AisleSpec(dx=-1.0)


def test_occupancy_ratio():
    assert occupancy(1120, 3200) == pytest.approx(0.35)
    with pytest.raises(BdmtspError):
        occupancy(5, 0)


# --------------------------------------------------------------------- io


LAYOUT_TEXT = """
# three nodes on a line
node a 0 0
node b 2 0
node c 5 0
edge a b
edge b c 3
"""


def test_parse_layout_with_defaults_and_comments():
    net = parse_layout(LAYOUT_TEXT)
    assert net.node_ids == ("a", "b", "c")
    assert shortest_path_route(net, "a", "c")[1] == 5.0


def test_default_edge_length_is_the_planar_kernel():
    # sqrt(dx*dx + dy*dy) of from-node minus to-node; math.hypot differs
    # in the last bit for each of these pairs
    net = parse_layout(
        "node a 0 0\nnode b 0.1 0.1\nnode c 0.1 1.2\nnode d 0.1 1.5\n"
        "edge a b\nedge a c\nedge a d\n"
    )
    assert [w.hex() for _, _, w in net.edges] == [
        "0x1.21a1851ff630bp-3",
        "0x1.3443cb52c2a85p+0",
        "0x1.80da360d9e625p+0",
    ]


def test_default_edge_length_overflow_is_a_parse_error():
    with pytest.raises(ParseError, match="invalid layout"):
        parse_layout("node a 0 0\nnode b 1e200 0\nedge a b\n")


def test_layout_roundtrip():
    net = grid_network(2, 3, AisleSpec(shelf_len=1.2))
    again = parse_layout(layout_text(net))
    assert again.node_ids == net.node_ids
    assert again.edges == net.edges


@pytest.mark.parametrize(
    "text",
    ["node a 0", "edge a b 1", "vertex a 0 0", "node a 0 zero"],
)
def test_parse_layout_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_layout(text)


def test_parse_jobs_csv():
    jobs = parse_jobs_csv("id,source,dest\n1,a,c\n2,c,b\n", PATH_NET)
    assert [j.internal_len for j in jobs] == [5.0, 3.0]
    with pytest.raises(ParseError):
        parse_jobs_csv("id,src\n1,a\n", PATH_NET)
    with pytest.raises(ParseError):
        parse_jobs_csv("id,source,dest\n", PATH_NET)


# "s" hangs off the hub by two parallel edges, 3.0 and 2.0
STAR_NET = WarehouseNetwork(
    nodes=tuple((nid, 0.0, 0.0) for nid in ("hub", "p", "q", "r", "s")),
    edges=(
        ("hub", "p", 1.0),
        ("s", "hub", 3.0),
        ("q", "hub", 1.0),
        ("hub", "s", 2.0),
        ("hub", "r", 2.0),
    ),
)


# Equal spacings make many equal-length paths, so these layouts exercise
# the heap's tie-breaking; the shelf stubs add dead ends and more ties.
# The small shapes put leaves at either end of a path, on a star and on
# parallel edges; the 2-node nets have no leaves at all.
TIE_LAYOUTS = [
    grid_network(4, 6, AisleSpec(dx=1.0, dy=1.0)),
    grid_network(5, 5, AisleSpec(dx=2.0, dy=2.0, shelf_len=1.0)),
    grid_network(3, 7, AisleSpec(dx=2.0, dy=3.0, shelf_len=1.5)),
    WarehouseNetwork(nodes=(("a", 0.0, 0.0), ("b", 1.0, 0.0)), edges=(("b", "a", 1.5),)),
    WarehouseNetwork(
        nodes=(("a", 0.0, 0.0), ("b", 1.0, 0.0)), edges=(("a", "b", 2.0), ("b", "a", 1.0))
    ),
    PATH_NET,
    STAR_NET,
    tie_net(3, 24),
    tie_net(4, 31),
]


def test_contracted_adjacency_by_hand():
    for net in TIE_LAYOUTS[3:5]:  # 2-node nets, with and without parallel edges
        assert net.contracted_adjacency[0] == (None, None)
    hub, p, q, r, s = range(5)
    parent, core, leaves = STAR_NET.contracted_adjacency
    assert parent == (None, (hub, 1.0), (hub, 1.0), (hub, 2.0), (hub, 2.0))
    assert core == ((), ((hub, 1.0),), ((hub, 1.0),), ((hub, 2.0),), ((hub, 3.0), (hub, 2.0)))
    assert leaves == (p, q, r, s)
    assert parent[s] is STAR_NET.ranked_adjacency[s][1]


def test_dijkstra_stops_at_its_target():
    # A run ends once its target settles (a leaf target: once its aisle
    # node does), so nodes far beyond the target keep no label.
    net = grid_network(3, 8, AisleSpec(shelf_len=1.0))
    for a, b in (("s0.0", "s0.1"), ("s0.0", "a0.1"), ("a0.0", "s0.1")):
        dist, prev = _dijkstra(net, net.rank_of(a), (net.rank_of(b),))
        assert dist[net.rank_of(b)] == shortest_path_route(net, a, b)[1]
        for far in ("a2.7", "s2.7"):
            assert (dist[net.rank_of(far)], prev[net.rank_of(far)]) == (math.inf, -1)


# random lengths, so sums round differently in another order; few
# chords, so leaves and long walks
RANDOM_NETS = [random_net(np.random.default_rng(seed), 30, extra=6) for seed in (51, 52)]


def _chain(prev, node):
    """The predecessor chain from ``node`` back to a -1, bounded by len(prev)."""
    chain = [node]
    while prev[chain[-1]] >= 0 and len(chain) <= len(prev):
        chain.append(prev[chain[-1]])
    return chain


@pytest.mark.parametrize("net", TIE_LAYOUTS + RANDOM_NETS)
def test_dijkstra_to_targets_equals_the_full_tree(net):
    # target sets of leaves and aisle nodes, with duplicates and the source
    rng = np.random.default_rng(47)
    n = len(net.node_ids)
    for source in range(n):
        full, full_prev = _dijkstra(net, source)
        # the source alone is settled before any search
        alone = ([math.inf] * n, [-1] * n)
        alone[0][source] = 0.0
        assert _dijkstra(net, source, [source, source]) == alone
        for draw in range(4):
            targets = [int(t) for t in rng.integers(n, size=int(rng.integers(1, 7)))]
            targets += targets[:1] + [source] * (draw % 2)
            dist, prev = _dijkstra(net, source, targets)
            for t in targets:
                assert dist[t].hex() == full[t].hex()
                assert _chain(prev, t) == _chain(full_prev, t)


@pytest.mark.parametrize("net", TIE_LAYOUTS + RANDOM_NETS)
def test_expand_route_equals_leg_by_leg_oracle(net):
    rng = np.random.default_rng(43)
    ids = net.node_ids
    triples = []
    for k in range(10):
        a, b = rng.choice(len(ids), size=2, replace=False)
        triples.append((f"j{k}", ids[int(a)], ids[int(b)]))
    jobs = transfer_jobs(net, triples)
    for _ in range(4):
        depot = ids[int(rng.integers(len(ids)))]
        order = rng.permutation(len(jobs))[: int(rng.integers(len(jobs) + 1))]
        route = (0, *(int(k) + 1 for k in order))
        walk, length = expand_route(net, jobs, depot, route)
        want, want_length = reference.expand_by_legs(net, jobs, depot, route)
        assert walk == want
        assert length.hex() == want_length.hex()


@pytest.mark.parametrize("net", TIE_LAYOUTS)
def test_shortest_paths_equal_string_keyed_oracle(net):
    ids = net.node_ids
    for a in ids:
        dist, prev = reference.dijkstra_by_id(ids, net.edges, a)
        labels, preds = _dijkstra(net, net.rank_of(a))
        assert [x.hex() for x in labels] == [dist[b].hex() for b in net.ranked_ids]
        assert preds[net.rank_of(a)] == -1
        assert {b: net.ranked_ids[r] for b, r in zip(net.ranked_ids, preds) if b != a} == prev
        for b in ids:
            assert shortest_path_route(net, a, b)[1] == dist[b]
            walk, length = shortest_path_route(net, a, b)
            assert walk == reference.walk_from_tree(prev, a, b)
            assert length == dist[b]


@pytest.mark.parametrize("net", TIE_LAYOUTS)
def test_jobs_to_instance_equals_string_keyed_oracle(net):
    rng = np.random.default_rng(41)
    ids = net.node_ids
    triples = []
    for k in range(12):
        a, b = rng.choice(len(ids), size=2, replace=False)
        triples.append((f"j{k}", ids[int(a)], ids[int(b)]))
    jobs = transfer_jobs(net, triples)
    depot = ids[int(rng.integers(len(ids)))]
    inst, _ = jobs_to_instance(net, jobs, depot)

    def tree(node):
        return reference.dijkstra_by_id(ids, net.edges, node)[0]

    starts = [depot] + [job.dest for job in jobs]
    ends = [depot] + [job.source for job in jobs]
    expect = np.array(
        [[0.0 if j == k else tree(s)[e] for k, e in enumerate(ends)] for j, s in enumerate(starts)]
    )
    assert np.array_equal(inst.dist, expect)
    for job in jobs:
        assert job.internal_len == tree(job.source)[job.dest]
