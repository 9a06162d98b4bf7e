import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bdmtsp.assignment import _WIDE, solve_assignment
from bdmtsp.core import BdmtspError
from reference import brute_force_assignment, matching_cost, numpy_assignment, numpy_pairs


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
    pairs = solve_assignment([[7.0]])
    assert pairs == ((0, 0),)
    assert matching_cost([[7.0]], pairs) == 7.0


def test_known_square_instance():
    cost = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
    pairs = solve_assignment(cost)
    assert matching_cost(cost, pairs) == 5.0
    assert pairs == ((0, 1), (1, 0), (2, 2))
    assert brute_force_assignment(cost).cost == 5.0


def test_wide_matrix_matches_brute_force():
    cost = np.array([[5.0, 1.0, 9.0, 2.0], [4.0, 8.0, 1.5, 3.0]])
    pairs = solve_assignment(cost)
    b = brute_force_assignment(cost)
    assert matching_cost(cost, pairs) == pytest.approx(b.cost)
    assert len(pairs) == 2
    assert pairs == ((0, 1), (1, 2))


def test_tall_matrix_matches_brute_force():
    cost = np.array([[5.0, 1.0], [4.0, 8.0], [0.5, 6.0]])
    pairs = solve_assignment(cost)
    b = brute_force_assignment(cost)
    assert matching_cost(cost, pairs) == pytest.approx(b.cost)
    # every column matched, rows distinct
    assert sorted(j for _, j in pairs) == [0, 1]
    assert len({r for r, _ in pairs}) == 2


def test_single_column_tie_takes_first_row():
    # contractual tie-break: on a one-column matrix the lowest-indexed
    # minimal row wins (keeps the two heuristics identical at d=1)
    assert solve_assignment([[2.0], [2.0], [5.0]]) == ((0, 0),)
    assert solve_assignment([[3.0], [1.0], [1.0], [1.0]]) == ((1, 0),)


def test_single_row_tie_takes_first_column():
    assert solve_assignment([[4.0, 4.0, 4.0]]) == ((0, 0),)


def test_negative_entries_supported():
    cost = np.array([[-3.0, 2.0], [1.0, -4.0]])
    pairs = solve_assignment(cost)
    assert matching_cost(cost, pairs) == pytest.approx(-7.0)
    assert pairs == ((0, 0), (1, 1))


def test_random_matrices_match_brute_force():
    rng = np.random.default_rng(42)
    for trial in range(300):
        nr = int(rng.integers(1, 7))
        nc = int(rng.integers(1, 7))
        cost = rng.random((nr, nc)) * rng.choice([1.0, 100.0])
        pairs = solve_assignment(cost)
        got = matching_cost(cost, pairs)
        b = brute_force_assignment(cost)
        assert got == pytest.approx(b.cost, rel=1e-12, abs=1e-12), (trial, cost)
        assert len(pairs) == min(nr, nc)
        assert len({r for r, _ in pairs}) == len(pairs)
        assert len({j for _, j in pairs}) == len(pairs)
        assert got == pytest.approx(sum(cost[r, j] for r, j in pairs))


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
        assert moved == base
        assert matching_cost(shifted, moved) == pytest.approx(matching_cost(cost, base) + 10.0)
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
        assert moved == base
        assert matching_cost(shifted, moved) == pytest.approx(matching_cost(cost, base) + 10.0)
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
        expect = tuple(sorted((int(np.where(perm == r)[0][0]), j) for r, j in base))
        assert permuted == expect
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


def _form(form, rows):
    """``rows`` as the list front takes it, or as a numpy array."""
    if form == "list":
        return rows
    try:
        return np.array(rows)
    except ValueError:  # ragged rows only fit an object array
        return np.array(rows, dtype=object)


_BAD = {
    "ragged": [[1.0], [2.0, 3.0]],
    "ragged-empty-row": [[1.0, 2.0], []],
    "empty": [],
    "empty-row": [[]],
    "flat": [1.0, 2.0],
    "nested": [[[1.0]]],
    "text": [["a"]],
    "numeric-text": [["1.5", "2.5"]],
    "complex": [[1j, 2.0]],
    "nan": [[1.0, math.nan], [2.0, 3.0]],
    "inf": [[2.0, 1.0], [1.0, math.inf]],
    "-inf": [[-math.inf, 1.0]],
    "nan-and-inf": [[math.inf, -math.inf, math.nan]],
}


@pytest.mark.parametrize("form", ["list", "ndarray"])
@pytest.mark.parametrize("name", list(_BAD))
def test_bad_matrices_raise_the_package_error_in_both_forms(form, name):
    with pytest.raises(BdmtspError):
        solve_assignment(_form(form, _BAD[name]))


@pytest.mark.parametrize("form", ["list", "ndarray"])
@pytest.mark.parametrize(
    "rows,pairs",
    [
        # the entries are finite even though their sum overflows
        ([[1e308, 1e308]], ((0, 0),)),
        ([[1e308], [1e308]], ((0, 0),)),
        ([[1e308, 1e308], [1e308, 1e308]], ((0, 0), (1, 1))),
        # ints and bools solve as the floats they equal
        ([[True, 2]], ((0, 0),)),
        ([[2, True], [False, 3]], ((0, 1), (1, 0))),
        ([[2**53 + 1, 2**53]], ((0, 0),)),  # equal as floats: first column
        # wide arrays take the numpy scan, whose sums overflow silently
        ([[1e308] * _WIDE], ((0, 0),)),
        ([[1e308]] * _WIDE, ((0, 0),)),
        ([[1e308] * _WIDE] * 2, ((0, 0), (1, 1))),
    ],
)
def test_finite_real_matrices_solve_in_both_forms(form, rows, pairs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_assignment(_form(form, rows)) == pairs


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
        pairs = solve_assignment(cost)
        assert len(pairs) == short
        assert matching_cost(cost, pairs) == pytest.approx(want, rel=1e-12, abs=1e-12), (trial, shape)


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
    assert got == want.pairs
    assert matching_cost(cost, got).hex() == want.cost.hex()


# Integer values and signed zeros: nearly every draw is full of exact
# ties, which only the scan order and the strict comparisons resolve.
_TIES = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0, -1.0, 7.0])


@st.composite
def _tie_rows(draw):
    kind = draw(st.sampled_from(["row", "column", "block"]))
    if kind == "row":
        shape = (1, draw(st.integers(1, 30)))
    elif kind == "column":
        shape = (draw(st.integers(1, 30)), 1)
    else:
        shape = (draw(st.integers(1, 7)), draw(st.integers(1, 30)))
        if draw(st.booleans()):
            shape = shape[::-1]
    r, c = shape
    return draw(st.lists(st.lists(_TIES, min_size=c, max_size=c), min_size=r, max_size=r))


@settings(max_examples=300, deadline=None)
@given(_tie_rows())
def test_list_and_ndarray_fronts_match_the_numpy_scalar_oracle(rows):
    want = numpy_assignment(np.array(rows)).pairs
    assert solve_assignment(rows) == want
    assert solve_assignment(np.array(rows)) == want


# Entries near the float range: the search's sums overflow to inf and,
# through inf - inf, to nan, which neither search may take as a distance.
_HUGE = st.sampled_from([-1.7e308, -1e308, -5e307, 5e307, 1e308, 1.7e308])


@st.composite
def _wide_costs(draw):
    short = draw(st.integers(1, 7))
    long = draw(st.integers(_WIDE - 5, 320))
    elements = st.one_of(_TIES, _HUGE) if draw(st.booleans()) else _TIES
    # every entry drawn, not one fill value repeated over most of them
    cost = draw(arrays(float, (short, long), elements=elements, fill=st.nothing()))
    if draw(st.booleans()):
        # A few contested columns and dearer ones elsewhere, as when the
        # vehicles share their nearest customers: the searches then pass
        # through matched columns, so the duals decide the pairs.
        few = draw(st.lists(st.integers(0, long - 1), min_size=1, max_size=short + 1,
                            unique=True))
        contested = cost[:, few]
        cost[:] = 9.0
        cost[:, few] = contested
    return cost.T if draw(st.booleans()) else cost


def _padded(rows):
    """``rows`` widened to ``_WIDE`` columns of a cost no matching takes."""
    c = np.array(rows)
    return np.pad(c, ((0, 0), (0, _WIDE - c.shape[1])), constant_values=1e6)


@example(_padded(_ROUNDING_TIES[0]))
@example(_padded(_ROUNDING_TIES[1]))
@settings(max_examples=60, deadline=None)
@given(_wide_costs())
def test_wide_blocks_match_the_numpy_scalar_oracle_in_both_forms(cost):
    # Lists keep the Python loop and wide arrays take the numpy scan;
    # both must pair exactly as the scalar loop, ties and overflow
    # included, and the scan must not warn about the overflow.
    want = numpy_pairs(cost)
    assert solve_assignment(cost.tolist()) == want
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_assignment(cost) == want


# Entries for the first-scan exit: ties, signed zeros, entries near the
# float range, and ints beyond 2**53 next to the floats they round to,
# where Python's exact comparison and the search's float one disagree.
_EXIT_ENTRIES = (
    -0.0, 0.0, 1.0, 2.0, 1, 2, 3, 1.5, True, -1e308, 1e308,
    2**53 - 1, 2**53, 2**53 + 1, 2.0**53, -(2**53) - 1, -(2.0**53),
)


@st.composite
def _exit_rows(draw):
    short = draw(st.integers(1, 7))
    long = draw(st.one_of(st.integers(1, 9), st.integers(_WIDE, _WIDE + 40)))
    r, c = (long, short) if draw(st.booleans()) else (short, long)
    # a few entry values per matrix, so that most rows tie, placed by a
    # seeded generator: far cheaper than drawing every entry
    pool = draw(st.lists(st.sampled_from(_EXIT_ENTRIES), min_size=1, max_size=5))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    return [[rnd.choice(pool) for _ in range(c)] for _ in range(r)]


# Row 1's search reaches row 0, where (1 + 2.0**53) - 2.0**53 rounds to 0,
# below the 1 already settled for column 1, so v[1] turns +1.0; row 2's
# cheapest column 0 is free, but the search settles column 1 first.
_ROUNDED_BELOW = [
    [2.0**53 + 2, 2.0**53, 2.0**53, 2.0**53 + 2],
    [5, 1, 5, 2],
    [1, 1, 10, 2.5],
    [0.5, 1, 9, 3],
]


# Row 0's exact minimum is 2.0**53 in column 1, but as floats its three
# entries tie, so the search gives row 0 column 0, and row 1 column 2.
@example([[2**53 + 1, 2.0**53, 2**53 + 1], [2**53, 2.0**53, 1]])
@example(_ROUNDED_BELOW)
@example([row + [2.0**54] * (_WIDE - len(row)) for row in _ROUNDED_BELOW])
@settings(max_examples=300, deadline=None)
@given(_exit_rows())
def test_first_scan_exit_pairs_as_the_search_in_both_forms(rows):
    want = numpy_pairs(rows)
    assert solve_assignment(rows) == want
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_assignment(np.array(rows)) == want


def test_brute_force_guard():
    with pytest.raises(BdmtspError):
        brute_force_assignment(np.zeros((9, 9)))
    # rectangular with small short side is fine
    brute_force_assignment(np.zeros((2, 40)))
