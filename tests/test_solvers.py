import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bdmtsp.core import (
    DynamicsScope,
    Fleet,
    InfeasibleError,
    RoutingInstance,
    build_schedule,
)
from bdmtsp import solvers
from bdmtsp.solvers import (
    RouteSet,
    bd_avh,
    bd_cvh,
    relative_difference,
    route_lengths,
)

import reference
from conftest import uniform_instance


def _explicit(matrix, name="fixture"):
    return RoutingInstance(name=name, dist=np.array(matrix, float))


# Hand-simulated 6-node fixture, m=2, visibility 2, budget ceil(5/2)=3.
# Reveal order 1..5.  Step 0 sends vehicle 0 to node 1 and vehicle 1 to
# node 2 under both policies (rows are identical at the depot, ties fall
# to the lower index).  Step 1 sees nodes {3,4} with step costs
# [[1,2],[1.5,10]]: the greedy policy grabs the global minimum 1 and
# pays 10 for the leftover pair, the matching policy pays 2+1.5.  Step 2
# serves node 5 from whichever vehicle ended nearer.
HAND = [
    [0.0, 10.0, 12.0, 50.0, 50.0, 50.0],
    [10.0, 0.0, 40.0, 1.0, 2.0, 50.0],
    [12.0, 40.0, 0.0, 1.5, 10.0, 50.0],
    [50.0, 1.0, 1.5, 0.0, 50.0, 7.0],
    [50.0, 2.0, 10.0, 50.0, 0.0, 3.0],
    [50.0, 50.0, 50.0, 7.0, 3.0, 0.0],
]


def _hand_setup():
    inst = _explicit(HAND)
    fleet = Fleet(m=2)
    sched = build_schedule(DynamicsScope.absolute(2), inst, m=2)
    return inst, fleet, sched


def test_closest_policy_matches_hand_simulation():
    inst, fleet, sched = _hand_setup()
    out = bd_cvh(inst, fleet, sched)
    assert out.routes == ((0, 1, 3), (0, 2, 4, 5))
    assert out.lengths == (11.0, 25.0)
    assert out.total == 36.0
    assert out.closed is False


def test_assignment_policy_matches_hand_simulation():
    inst, fleet, sched = _hand_setup()
    out = bd_avh(inst, fleet, sched)
    assert out.routes == ((0, 1, 4, 5), (0, 2, 3))
    assert out.lengths == (15.0, 13.5)
    assert out.total == 28.5


def test_hand_fixture_closed_totals():
    inst, fleet, sched = _hand_setup()
    cvh = bd_cvh(inst, fleet, sched, closed=True)
    avh = bd_avh(inst, fleet, sched, closed=True)
    assert cvh.total == 36.0 + 50.0 + 50.0
    assert avh.total == 28.5 + 50.0 + 50.0
    assert cvh.closed and avh.closed


def test_hand_fixture_step_traces():
    inst, fleet, sched = _hand_setup()
    traces = []
    bd_cvh(inst, fleet, sched, on_step=traces.append)
    assert [t.nodes for t in traces] == [(1, 2), (3, 4), (5,)]
    assert np.allclose(traces[1].costs, [[1.0, 2.0], [1.5, 10.0]])
    assert traces[1].pairs == ((0, 0), (1, 1))
    assert traces[2].vehicles == (0, 1)


def test_two_node_instance_trivial():
    inst = _explicit([[0.0, 4.0], [4.0, 0.0]])
    for solver in (bd_cvh, bd_avh):
        out = solver(inst, Fleet(m=1), build_schedule(DynamicsScope.absolute(1), inst, m=1))
        assert out.routes == ((0, 1),)
        assert out.total == 4.0


def test_single_vehicle_policies_agree():
    # with one vehicle both policies reduce to nearest-visible selection
    inst = uniform_instance(40, seed=9)
    sched = build_schedule(DynamicsScope.absolute(5), inst, m=1)
    fleet = Fleet(m=1)
    a = bd_avh(inst, fleet, sched)
    c = bd_cvh(inst, fleet, sched)
    assert a.routes == c.routes
    assert a.total == pytest.approx(c.total)


def test_full_visibility_closest_matches_static_oracle():
    for seed in range(8):
        n, m = 31, 3
        inst = uniform_instance(n, seed=seed)
        sched = build_schedule(DynamicsScope.relative(1.0), inst, m=m)
        out = bd_cvh(inst, Fleet(m=m), sched)
        oracle_routes = reference.static_closest_vehicle(
            reference.full_matrix(inst), inst.depot, m, cap=11
        )
        assert [list(r) for r in out.routes] == oracle_routes


# Integer values and signed zeros: most picks are among exact ties.
_TIES = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0, -1.0, 7.0])


@st.composite
def _tie_blocks(draw):
    k = draw(st.integers(1, 30))
    shape = draw(st.sampled_from([(1, k), (k, 1), (k, k), (7, 300)]))
    return draw(arrays(float, shape, elements=_TIES, fill=st.nothing()))


@settings(max_examples=200, deadline=None)
@given(_tie_blocks())
def test_closest_pairs_match_the_unravel_index_oracle_in_both_forms(block):
    want = reference.closest_pairs(block)
    assert solvers._closest_pairs(block) == want
    assert solvers._closest_pairs(block.tolist()) == want


def test_single_reveal_makes_policies_identical():
    for seed in range(8):
        inst = uniform_instance(25, seed=100 + seed)
        sched = build_schedule(DynamicsScope.absolute(1), inst, m=3)
        fleet = Fleet(m=3)
        assert bd_avh(inst, fleet, sched).routes == bd_cvh(inst, fleet, sched).routes


def test_assignment_steps_match_brute_force_oracle():
    inst = uniform_instance(30, seed=4)
    sched = build_schedule(DynamicsScope.absolute(4), inst, m=3)
    checked = 0

    def check(trace):
        nonlocal checked
        step_cost = sum(trace.costs[i, j] for i, j in trace.pairs)
        assert step_cost == pytest.approx(reference.brute_force_assignment(trace.costs).cost)
        assert len(trace.pairs) == min(trace.costs.shape)
        checked += 1

    bd_avh(inst, Fleet(m=3), sched, on_step=check)
    assert checked >= 8


def test_routes_partition_customers():
    for solver in (bd_cvh, bd_avh):
        inst = uniform_instance(57, seed=2)
        sched = build_schedule(DynamicsScope.absolute(6), inst, m=4)
        out = solver(inst, Fleet(m=4), sched)
        seen = [node for route in out.routes for node in route[1:]]
        assert sorted(seen) == list(range(1, 57))
        assert all(route[0] == inst.depot for route in out.routes)


@pytest.mark.parametrize("m,d", [(1, 3), (2, 2), (3, 5), (4, 7), (5, 5)])
def test_balance_within_one_when_visibility_covers_fleet(m, d):
    for seed in (0, 1, 2):
        inst = uniform_instance(47, seed=seed * 31 + m)
        sched = build_schedule(DynamicsScope.absolute(d), inst, m=m)
        for solver in (bd_cvh, bd_avh):
            out = solver(inst, Fleet(m=m), sched)
            counts = [len(r) - 1 for r in out.routes]
            assert max(counts) - min(counts) <= 1
            assert max(counts) <= Fleet(m=m).capacity_for(47)


def test_capacity_blocking_extends_sequential_run():
    # 11 clustered customers, 4 vehicles, budget 3, visibility 3.  The
    # first three vehicles absorb the cluster and hit their budget after
    # three steps; the idle fourth then needs two extra steps beyond the
    # nominal schedule, which a sequential scope must allow.
    coords = [[0.0, 0.0]] + [[1.0, 0.01 * k] for k in range(1, 12)]
    inst = RoutingInstance(name="cluster", coords=np.array(coords))
    sched = build_schedule(DynamicsScope.absolute(3), inst, m=4)
    steps = []
    out = bd_cvh(inst, Fleet(m=4), sched, on_step=steps.append)
    assert len(steps) == 5
    counts = sorted(len(r) - 1 for r in out.routes)
    assert counts == [2, 3, 3, 3]
    assert sorted(n for r in out.routes for n in r[1:]) == list(range(1, 12))


def test_infeasible_capacity_rejected():
    inst = uniform_instance(6, seed=1)
    sched = build_schedule(DynamicsScope.absolute(2), inst, m=2)
    with pytest.raises(InfeasibleError):
        bd_cvh(inst, Fleet(m=2, capacity=2), sched)


def test_open_total_bounded_on_unit_square():
    # single-vehicle open walks over uniform points stay under (n+1)*sqrt(2)
    for seed, n in [(0, 10), (1, 30), (2, 50), (3, 120)]:
        inst = uniform_instance(n, seed=seed)
        sched = build_schedule(DynamicsScope.absolute(1), inst, m=1)
        out = bd_avh(inst, Fleet(m=1), sched)
        assert out.total <= (n + 1) * np.sqrt(2)


def test_route_lengths_hand_arithmetic():
    inst = _explicit([[0.0, 2.0, 9.0], [2.0, 0.0, 3.0], [9.0, 3.0, 0.0]])
    lengths, total = route_lengths([(0, 1, 2), (0,)], inst)
    assert lengths == (5.0, 0.0)
    assert total == 5.0
    lengths_c, total_c = route_lengths([(0, 1, 2), (0,)], inst, closed=True)
    assert lengths_c == (14.0, 0.0)
    assert total_c == 14.0


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("n", [50, 500])
@pytest.mark.parametrize("kind", ["coords", "dist"])
def test_route_lengths_equal_per_leg_distances_bit_for_bit(kind, n, closed):
    rng = np.random.default_rng(n)
    points = rng.random((n, 2)) * 1000.0
    if kind == "coords":
        inst = RoutingInstance(name="c", coords=points)
    else:
        diff = points[:, None, :] - points[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1]) * rng.uniform(1.0, 1.5, (n, n))
        np.fill_diagonal(dist, 0.0)
        inst = RoutingInstance(name="d", dist=dist)
    customers = rng.permutation(np.arange(1, n)).tolist()
    routes = [[0] + customers[k::4] for k in range(4)] + [[0], [3]]
    want = []
    for route in routes:
        length = 0.0
        for a, b in zip(route, route[1:]):
            length += reference.distance(inst, a, b)
        if closed and len(route) > 1:
            length += reference.distance(inst, route[-1], route[0])
        want.append(length)
    lengths, total = route_lengths(routes, inst, closed)
    assert [v.hex() for v in lengths] == [v.hex() for v in want]
    want_total = 0.0
    for length in want:
        want_total += length
    assert total.hex() == want_total.hex()


@pytest.mark.parametrize("solver", [bd_avh, bd_cvh])
def test_step_traces_hold_each_block_as_an_array(solver):
    # 3 x 40 blocks are numpy arrays; the shrinking tail blocks are
    # lists.  Either way the trace holds an array of the block's bits.
    inst = uniform_instance(200, seed=5)
    m = 3
    traces = []
    solver(inst, Fleet(m=m), build_schedule(DynamicsScope.absolute(40), inst, m),
           on_step=traces.append)
    from_node = [inst.depot] * m
    forms = set()
    for t in traces:
        block = inst.submatrix([from_node[k] for k in t.vehicles], t.nodes)
        forms.add(type(block))
        assert type(t.costs) is np.ndarray and t.costs.dtype == float
        assert t.costs.shape == (len(t.vehicles), len(t.nodes))
        assert _hexes(t.costs.ravel()) == [float(v).hex() for row in block for v in row]
        for a, b in t.pairs:
            from_node[t.vehicles[a]] = t.nodes[b]
    assert forms == {list, np.ndarray}


def test_avh_builds_no_trace_array_without_a_hook(monkeypatch):
    made = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def array(self, *args, **kwargs):
            made.append(1)
            return np.array(*args, **kwargs)

    monkeypatch.setattr(solvers, "np", CountingNumpy())
    inst = uniform_instance(60, seed=2)
    sched = build_schedule(DynamicsScope.absolute(5), inst, m=3)
    bd_avh(inst, Fleet(m=3), sched)
    assert made == []
    steps = []
    bd_avh(inst, Fleet(m=3), sched, on_step=steps.append)
    assert len(made) == len(steps) > 0


def _hexes(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("closed", [False, True])
def test_route_lengths_sum_the_legs_the_dispatch_decided_on(closed, monkeypatch):
    rng = np.random.default_rng(11)
    inst = RoutingInstance(name="frac", coords=rng.random((3000, 2)) * 977.3 - 311.7)
    customers = rng.permutation(np.arange(1, inst.n)).tolist()
    routes = [[0] + customers[k::3] for k in range(3)] + [[0], [5]]
    seen = []
    legs = RoutingInstance.legs

    def recording(self, walk):
        out = legs(self, walk)
        seen.append((list(walk), out.tolist()))
        return out

    monkeypatch.setattr(RoutingInstance, "legs", recording)
    lengths, _ = route_lengths(routes, inst, closed)
    walks = [r + r[:1] if closed and len(r) > 1 else r for r in routes]
    assert [w for w, _ in seen] == walks
    for (walk, got), length in zip(seen, lengths):
        pairs = list(zip(walk, walk[1:]))
        assert _hexes(got) == _hexes(inst.submatrix([a], [b])[0][0] for a, b in pairs)
        assert _hexes(got) == _hexes(reference.distance(inst, a, b) for a, b in pairs)
        total = 0.0
        for leg in got:
            total += leg
        assert length.hex() == total.hex()


def test_route_total_sums_left_to_right_on_every_python():
    # 1.0 + 1e-16 rounds back to 1.0 twice; a compensated sum (the
    # builtin sum from Python 3.12 on) gives 1.0000000000000002
    inst = _explicit(
        [[0.0, 1.0, 1e-16, 1e-16], [1.0, 0.0, 1.0, 1.0],
         [1e-16, 1.0, 0.0, 1.0], [1e-16, 1.0, 1.0, 0.0]]
    )
    lengths, total = route_lengths([(0, 1), (0, 2), (0, 3)], inst)
    assert lengths == (1.0, 1e-16, 1e-16)
    assert total.hex() == (1.0).hex()


def test_route_lengths_rejects_empty_route():
    inst = uniform_instance(4, seed=0)
    with pytest.raises(InfeasibleError):
        route_lengths([()], inst)


def test_relative_difference():
    assert relative_difference(100.0, 103.0) == pytest.approx(0.03)
    assert relative_difference(100.0, 95.0) == pytest.approx(-0.05)
    assert relative_difference(5.0, 5.0) == 0.0
    with pytest.raises(InfeasibleError):
        relative_difference(0.0, 1.0)


def test_route_set_is_frozen():
    out = RouteSet(routes=((0,),), lengths=(0.0,), total=0.0, closed=False)
    with pytest.raises(Exception):
        out.total = 1.0
