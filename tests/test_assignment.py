import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bdmtsp.assignment import Assignment, solve_assignment
from bdmtsp.core import BdmtspError
from reference import brute_force_assignment, numpy_assignment


def _all_matching_costs(c):
    nr, nc = c.shape
    if nr <= nc:
        return sorted(
            sum(c[r, j] for r, j in enumerate(cols))
            for cols in itertools.permutations(range(nc), nr)
        )
    return sorted(
        sum(c[r, j] for j, r in enumerate(rows))
        for rows in itertools.permutations(range(nr), nc)
    )


def test_single_cell():
    a = solve_assignment([[7.0]])
    assert a.pairs == ((0, 0),)
    assert a.cost == 7.0


def test_known_square_instance():
    cost = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
    a = solve_assignment(cost)
    assert a.cost == 5.0
    assert a.pairs == ((0, 1), (1, 0), (2, 2))
    assert brute_force_assignment(cost).cost == 5.0


def test_wide_matrix_matches_brute_force():
    cost = np.array([[5.0, 1.0, 9.0, 2.0], [4.0, 8.0, 1.5, 3.0]])
    a = solve_assignment(cost)
    b = brute_force_assignment(cost)
    assert a.cost == pytest.approx(b.cost)
    assert len(a.pairs) == 2
    assert a.pairs == ((0, 1), (1, 2))


def test_tall_matrix_matches_brute_force():
    cost = np.array([[5.0, 1.0], [4.0, 8.0], [0.5, 6.0]])
    a = solve_assignment(cost)
    b = brute_force_assignment(cost)
    assert a.cost == pytest.approx(b.cost)
    # every column matched, rows distinct
    assert sorted(j for _, j in a.pairs) == [0, 1]
    assert len({r for r, _ in a.pairs}) == 2


def test_single_column_tie_takes_first_row():
    # contractual tie-break: on a one-column matrix the lowest-indexed
    # minimal row wins (keeps the two heuristics identical at d=1)
    a = solve_assignment([[2.0], [2.0], [5.0]])
    assert a.pairs == ((0, 0),)
    a = solve_assignment([[3.0], [1.0], [1.0], [1.0]])
    assert a.pairs == ((1, 0),)


def test_single_row_tie_takes_first_column():
    a = solve_assignment([[4.0, 4.0, 4.0]])
    assert a.pairs == ((0, 0),)


def test_negative_entries_supported():
    cost = np.array([[-3.0, 2.0], [1.0, -4.0]])
    a = solve_assignment(cost)
    assert a.cost == pytest.approx(-7.0)
    assert a.pairs == ((0, 0), (1, 1))


def test_random_matrices_match_brute_force():
    rng = np.random.default_rng(42)
    for trial in range(300):
        nr = int(rng.integers(1, 7))
        nc = int(rng.integers(1, 7))
        cost = rng.random((nr, nc)) * rng.choice([1.0, 100.0])
        a = solve_assignment(cost)
        b = brute_force_assignment(cost)
        assert a.cost == pytest.approx(b.cost, rel=1e-12, abs=1e-12), (trial, cost)
        assert len(a.pairs) == min(nr, nc)
        assert len({r for r, _ in a.pairs}) == len(a.pairs)
        assert len({j for _, j in a.pairs}) == len(a.pairs)
        assert a.cost == pytest.approx(sum(cost[r, j] for r, j in a.pairs))


def test_row_shift_moves_cost_by_constant():
    rng = np.random.default_rng(7)
    done = 0
    while done < 50:
        cost = rng.random((3, 5))
        costs = _all_matching_costs(cost)
        if costs[1] - costs[0] < 1e-6:
            continue  # want a unique optimum
        base = solve_assignment(cost)
        shifted = cost.copy()
        shifted[1, :] += 10.0  # every complete matching uses each row once
        moved = solve_assignment(shifted)
        assert moved.pairs == base.pairs
        assert moved.cost == pytest.approx(base.cost + 10.0)
        done += 1


def test_column_shift_moves_cost_by_constant_when_all_columns_matched():
    rng = np.random.default_rng(8)
    done = 0
    while done < 50:
        cost = rng.random((5, 3))
        costs = _all_matching_costs(cost)
        if costs[1] - costs[0] < 1e-6:
            continue
        base = solve_assignment(cost)
        shifted = cost.copy()
        shifted[:, 2] += 10.0
        moved = solve_assignment(shifted)
        assert moved.pairs == base.pairs
        assert moved.cost == pytest.approx(base.cost + 10.0)
        done += 1


def test_row_permutation_permutes_pairs():
    rng = np.random.default_rng(9)
    done = 0
    while done < 50:
        cost = rng.random((4, 6))
        costs = _all_matching_costs(cost)
        if costs[1] - costs[0] < 1e-6:
            continue
        base = solve_assignment(cost)
        perm = rng.permutation(4)
        permuted = solve_assignment(cost[perm])
        expect = tuple(sorted((int(np.where(perm == r)[0][0]), j) for r, j in base.pairs))
        assert permuted.pairs == expect
        done += 1


@pytest.mark.parametrize(
    "bad",
    [
        [[]],
        [[1.0, math.nan]],
        [[-math.inf, 1.0]],
        [1.0, 2.0],
        [[1.0, math.inf]],
    ],
)
def test_input_validation(bad):
    with pytest.raises(BdmtspError):
        solve_assignment(bad)


def test_cost_matches_scipy_beyond_brute_force_sizes():
    # Shorter side 9-40 in both orientations, half of the matrices
    # tie-heavy; only costs are compared, since tied optima may pair
    # differently.
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2026)
    for trial in range(24):
        short = int(rng.integers(9, 41))
        shape = (short, int(rng.integers(short, 61)))
        if trial % 2:
            shape = shape[::-1]
        if trial % 4 < 2:
            cost = rng.integers(0, 6, size=shape).astype(float)
        else:
            cost = rng.random(shape) * 100.0
        rows, cols = optimize.linear_sum_assignment(cost)
        want = math.fsum(cost[rows, cols])
        got = solve_assignment(cost)
        assert len(got.pairs) == short
        assert got.cost == pytest.approx(want, rel=1e-12, abs=1e-12), (trial, shape)


# Small integers make most matrices tie-heavy; the floats cover negative
# and fractional costs.
_ENTRIES = st.one_of(
    st.sampled_from([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def _costs(draw):
    short = draw(st.integers(1, 7))
    long = draw(st.integers(1, 40))
    shape = (long, short) if draw(st.booleans()) else (short, long)
    return draw(arrays(float, shape, elements=_ENTRIES))


# Exact ties that rounding splits: evaluating the reduced cost
# min_val + c[i][j] - u[i] - v[j] in any other order matches these
# differently, which random draws only rarely show.
_ROUNDING_TIES = (
    [[-1.3, 7.2, 7.2, 7.2], [-1.4, -1.3, 7.2, -1.4],
     [7.2, -1.3, 7.2, -1.4], [7.2, -1.4, -1.3, -1.3]],
    [[237.18856591795884, 677.769809083389, -203.23266709497227],
     [237.18856591795884, 237.18856591795884, 250.41891279753258],
     [677.769809083389, 237.18856591795884, 250.41891279753258],
     [-670.8831485940514, -670.8831485940514, 677.769809083389]],
)


@example(np.array(_ROUNDING_TIES[0]))
@example(np.array(_ROUNDING_TIES[1]))
@settings(max_examples=200, deadline=None)
@given(_costs())
def test_pairs_and_cost_bits_match_numpy_scalar_oracle(cost):
    got = solve_assignment(cost)
    want = numpy_assignment(cost)
    assert got.pairs == want.pairs
    assert got.cost.hex() == want.cost.hex()


def test_brute_force_guard():
    with pytest.raises(BdmtspError):
        brute_force_assignment(np.zeros((9, 9)))
    # rectangular with small short side is fine
    brute_force_assignment(np.zeros((2, 40)))


def test_assignment_value_object():
    a = Assignment(pairs=((0, 1),), cost=2.0)
    assert a == Assignment(pairs=((0, 1),), cost=2.0)
    with pytest.raises(Exception):
        a.cost = 3.0
