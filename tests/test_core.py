import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmtsp.core import (
    BdmtspError,
    DynamicsScope,
    Fleet,
    RoutingInstance,
    ScheduleError,
    ScopeError,
    balancing_threshold,
    build_schedule,
    resolve_scope,
    round_half_up,
)
from bdmtsp.solvers import bd_avh, bd_cvh

import reference
from conftest import uniform_instance


# ---------------------------------------------------------------- rounding


def test_round_half_up_goes_up_on_ties():
    # banker's rounding would give 2 and 4 here; the scope conversions
    # need 3 and 5 (verified against the published conversion tables).
    assert round_half_up(2.5) == 3
    assert round_half_up(4.5) == 5
    assert round_half_up(0.5) == 1


@pytest.mark.parametrize(
    "x,expected",
    [(0.0, 0), (0.49, 0), (0.51, 1), (1.0, 1), (2.4999, 2), (-0.5, 0), (-0.6, -1)],
)
def test_round_half_up_plain_cases(x, expected):
    assert round_half_up(x) == expected


@given(st.integers(min_value=-10_000, max_value=10_000))
def test_round_half_up_is_identity_on_integers(k):
    assert round_half_up(float(k)) == k


# ------------------------------------------------------------------ scopes


def test_resolve_absolute_passthrough():
    scope = DynamicsScope.absolute(5)
    assert resolve_scope(scope, m=3, n=100) == 5


def test_resolve_absolute_clamps_to_customer_count():
    assert resolve_scope(DynamicsScope.absolute(200), m=2, n=100) == 99


@pytest.mark.parametrize(
    "m,value,expected",
    [
        (3, 2, 6),
        (5, 0.5, 3),  # half-up on 2.5
        (3, 1.5, 5),  # half-up on 4.5
        (2, 1.5, 3),
        (5, 1.5, 8),
        (5, 2, 10),
        (5, 8, 40),
        (2, 8, 16),
    ],
)
def test_resolve_m_absolute(m, value, expected):
    assert resolve_scope(DynamicsScope.m_absolute(value), m=m, n=100) == expected


def test_resolve_m_absolute_huge_value_clamps_without_overflow():
    assert resolve_scope(DynamicsScope.m_absolute(1e308), m=7, n=51) == 50


@pytest.mark.parametrize(
    "n,fraction,expected",
    [
        # relative scope multiplies the customer count n-1
        (100, 0.05, 5),
        (52, 0.05, 3),  # half-up on 2.55
        (52, 0.02, 1),
        (52, 1.0, 51),
        (318, 0.20, 63),  # 317*0.2=63.4; the node count would give 64
        (318, 0.05, 16),
        (29, 0.10, 3),
        (29, 0.30, 8),
        (9, 0.05, 1),  # rounds to 0, clamped up
    ],
)
def test_resolve_relative(n, fraction, expected):
    assert resolve_scope(DynamicsScope.relative(fraction), m=4, n=n) == expected


def test_resolve_relative_full_visibility_is_customer_count():
    for n in (2, 9, 52, 318):
        assert resolve_scope(DynamicsScope.relative(1.0), m=3, n=n) == n - 1


def test_resolve_m_relative():
    assert resolve_scope(DynamicsScope.m_relative(0.02), m=3, n=100) == 6
    assert resolve_scope(DynamicsScope.m_relative(0.01), m=2, n=52) == 1


def test_resolve_variable_is_rejected():
    with pytest.raises(ScopeError, match="build_schedule"):
        resolve_scope(DynamicsScope.variable((3, 4, 5)), m=2, n=10)


@pytest.mark.parametrize(
    "kind,value",
    [
        ("absolute", 0),
        ("absolute", 1.5),
        ("relative", 0.0),
        ("relative", 1.2),
        ("m_relative", -0.1),
        ("m_absolute", 0),
        ("variable", ()),
        ("variable", (3, 0)),
        ("bogus", 1),
        ("m_absolute", math.inf),
        ("m_absolute", math.nan),
        ("relative", math.nan),
        ("m_relative", math.nan),
    ],
)
def test_scope_validation_rejects(kind, value):
    with pytest.raises(ScopeError):
        DynamicsScope(kind, value)


def test_scope_variable_coerces_sequences():
    assert DynamicsScope.variable([3, 4, 5]).value == (3, 4, 5)


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=2, max_value=400),
    st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
)
def test_resolve_relative_stays_in_range(m, n, fraction):
    k = resolve_scope(DynamicsScope.relative(fraction), m=m, n=n)
    assert 1 <= k <= n - 1


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=2, max_value=400),
    st.floats(min_value=0.01, max_value=16.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=16.0, allow_nan=False),
)
def test_resolve_m_absolute_monotone(m, n, a, b):
    lo, hi = sorted((a, b))
    k_lo = resolve_scope(DynamicsScope.m_absolute(lo), m=m, n=n)
    k_hi = resolve_scope(DynamicsScope.m_absolute(hi), m=m, n=n)
    assert k_lo <= k_hi


# --------------------------------------------------------------- threshold


@pytest.mark.parametrize(
    "n,m,expected",
    [(13, 3, 4), (9, 2, 4), (52, 5, 11), (51, 2, 25), (100, 7, 15), (2, 1, 1)],
)
def test_balancing_threshold_examples(n, m, expected):
    assert balancing_threshold(n, m) == expected


@given(st.integers(min_value=2, max_value=10_000), st.integers(min_value=1, max_value=500))
def test_balancing_threshold_is_tight_ceiling(n, m):
    q = balancing_threshold(n, m)
    assert q * m >= n - 1
    assert (q - 1) * m < n - 1


def test_balancing_threshold_rejects_degenerate():
    with pytest.raises(BdmtspError):
        balancing_threshold(1, 3)
    with pytest.raises(BdmtspError):
        balancing_threshold(10, 0)


# ---------------------------------------------------------------- instance


def test_instance_basic_properties():
    inst = uniform_instance(8, seed=1)
    assert inst.n == 8
    assert inst.customers() == (1, 2, 3, 4, 5, 6, 7)
    assert inst.distance(2, 2) == 0.0
    assert inst.distance(1, 5) == pytest.approx(inst.distance(5, 1))


def test_instance_submatrix_matches_full_matrix():
    inst = uniform_instance(10, seed=7)
    full = inst.full_matrix()
    block = inst.submatrix([2, 5], [1, 8, 9])
    assert np.allclose(block, full[np.ix_([2, 5], [1, 8, 9])])


def test_instance_explicit_matrix_roundtrip():
    d = np.array([[0.0, 2.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]])
    inst = RoutingInstance(name="x", dist=d)
    assert inst.distance(0, 1) == 2.0
    assert inst.distance(1, 0) == 1.0  # asymmetry preserved
    assert np.array_equal(inst.full_matrix(), d)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(),
        dict(coords=np.zeros((1, 2))),
        dict(coords=np.zeros((3, 3))),
        dict(dist=np.array([[0.0, -1.0], [1.0, 0.0]])),
        dict(dist=np.array([[1.0, 2.0], [2.0, 1.0]])),
        dict(dist=np.array([[0.0, np.inf], [1.0, 0.0]])),
        dict(coords=np.zeros((4, 2)), depot=4),
        dict(  # both given, and inconsistent too
            coords=np.array([[0.0, 0.0], [3.0, 4.0]]),
            dist=np.array([[0.0, 6.0], [6.0, 0.0]]),
        ),
        dict(coords=np.array([[0.0, 0.0], [np.nan, 1.0]])),
        dict(coords=np.array([[0.0, 0.0], [1.0, -np.inf]])),
    ],
)
def test_instance_validation_rejects(kwargs):
    with pytest.raises(BdmtspError):
        RoutingInstance(name="bad", **kwargs)


def test_instance_is_immutable():
    inst = uniform_instance(5, seed=3)
    with pytest.raises(Exception):
        inst.depot = 1
    with pytest.raises(ValueError):
        inst.coords[0, 0] = 99.0


# ------------------------------------------------------------------- fleet


def test_fleet_capacity_defaults_to_threshold():
    assert Fleet(m=3).capacity_for(13) == 4
    assert Fleet(m=3, capacity=9).capacity_for(13) == 9


def test_fleet_validation():
    with pytest.raises(BdmtspError):
        Fleet(m=0)
    with pytest.raises(BdmtspError):
        Fleet(m=2, capacity=0)


# --------------------------------------------------------------- schedules


def _visible_counts(inst, scope, m):
    """Visible count per dispatch step, one tuple per policy (cvh, avh)."""
    counts = []
    for solver in (bd_cvh, bd_avh):
        traces = []
        solver(inst, Fleet(m=m), build_schedule(scope, inst, m), on_step=traces.append)
        counts.append(tuple(len(t.nodes) for t in traces))
    return tuple(counts)


def test_schedule_default_ordering_skips_depot():
    # customers are revealed in node order with the depot left out
    inst = RoutingInstance(name="x", coords=np.random.rand(5, 2), depot=2)
    sched = build_schedule(DynamicsScope.absolute(2), inst, m=1)
    for solver in (bd_cvh, bd_avh):
        traces = []
        solver(inst, Fleet(m=1), sched, on_step=traces.append)
        assert traces[0].nodes == (0, 1)
        revealed = []
        for t in traces:
            revealed += [node for node in t.nodes if node not in revealed]
        assert revealed == [0, 1, 3, 4]


def test_schedule_sequential_counts():
    # 9 customers, target 4, two vehicles: each step serves 2, so
    # visibility runs 4,4,4 then the 3-then-1 tail.
    inst = uniform_instance(10, seed=0)
    sched = build_schedule(DynamicsScope.absolute(4), inst, m=2)
    assert sched.targets == (4,)
    assert sched.repeat_last
    assert _visible_counts(inst, DynamicsScope.absolute(4), 2) == ((4, 4, 4, 3, 1),) * 2


def test_schedule_single_visibility():
    inst = uniform_instance(6, seed=0)
    assert _visible_counts(inst, DynamicsScope.absolute(1), 3) == ((1, 1, 1, 1, 1),) * 2


def test_schedule_full_visibility():
    inst = uniform_instance(10, seed=0)
    assert _visible_counts(inst, DynamicsScope.relative(1.0), 3) == ((9, 6, 3),) * 2


def test_schedule_sequential_target_never_exhausts():
    inst = uniform_instance(10, seed=0)
    sched = build_schedule(DynamicsScope.absolute(4), inst, m=2)
    assert sched.visible_target(10_000) == 4


def test_schedule_variable_counts_and_exhaustion():
    inst = uniform_instance(8, seed=0)
    scope = DynamicsScope.variable((3, 4, 5))
    sched = build_schedule(scope, inst, m=3)
    assert sched.targets == (3, 4, 5)
    assert not sched.repeat_last
    assert sched.visible_target(1) == 4
    with pytest.raises(ScheduleError):
        sched.visible_target(3)
    assert _visible_counts(inst, scope, 3) == ((3, 4, 1),) * 2


def test_schedule_variable_too_short_rejected():
    inst = uniform_instance(6, seed=0)
    with pytest.raises(ScheduleError, match="exhausted"):
        build_schedule(DynamicsScope.variable((1, 1)), inst, m=1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=10),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=-3, max_value=3),
)
def test_variable_schedule_rejected_exactly_when_nominal_service_runs_out(targets, m, offset):
    # n lands within a few customers of what the sequence can serve
    n = max(2, sum(min(m, k) for k in targets) + 1 + offset)
    inst = uniform_instance(n, seed=0)
    try:
        reference.nominal_step_counts(targets, m, n)
    except ScheduleError:
        with pytest.raises(ScheduleError, match="exhausted"):
            build_schedule(DynamicsScope.variable(targets), inst, m=m)
    else:
        sched = build_schedule(DynamicsScope.variable(targets), inst, m=m)
        assert sched.targets == tuple(targets)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=59),
    st.sampled_from([bd_cvh, bd_avh]),
)
def test_schedule_reveals_every_customer_exactly(n, m, d, depot, solver):
    depot %= n
    coords = np.random.default_rng(n * 1000 + m).random((n, 2))
    inst = RoutingInstance(name="p", coords=coords, depot=depot)
    sched = build_schedule(DynamicsScope.absolute(d), inst, m=m)
    customers = [i for i in range(n) if i != depot]
    served: list[int] = []
    traces = []
    out = solver(inst, Fleet(m=m), sched, on_step=traces.append)
    for t in traces:
        unserved = [c for c in customers if c not in served]
        target = sched.visible_target(t.step)
        assert t.nodes == tuple(unserved[: min(target, len(unserved))])
        assert depot not in t.nodes
        for _, b in t.pairs:
            assert t.nodes[b] not in served
            served.append(t.nodes[b])
    assert sorted(served) == customers
    assert sorted(node for route in out.routes for node in route[1:]) == customers
