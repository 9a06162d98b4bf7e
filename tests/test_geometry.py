import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bdmtsp.core import BdmtspError
from bdmtsp.geometry import (
    EARTH_RADIUS_KM,
    GeoPoint,
    TripRecord,
    detour_factor,
    haversine,
    repair_outliers,
)

import reference

DEPOT = GeoPoint(19.3702, -99.1799)

lat_st = st.floats(min_value=19.0, max_value=20.0, allow_nan=False)
lon_st = st.floats(min_value=-99.6, max_value=-98.0, allow_nan=False)


def _trip(pickup, dropoff, ratio):
    """Trip whose recorded distance is ratio * great-circle distance."""
    return TripRecord(
        pickup=pickup, dropoff=dropoff, recorded_km=ratio * haversine(pickup, dropoff)
    )


def test_haversine_zero_for_identical_points():
    assert haversine(DEPOT, DEPOT) == 0.0


def test_haversine_against_law_of_cosines_oracle():
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(1000):
        a = GeoPoint(rng.uniform(19, 20), rng.uniform(-99.6, -98.0))
        b = GeoPoint(rng.uniform(19, 20), rng.uniform(-99.6, -98.0))
        ours = haversine(a, b)
        oracle = reference.law_of_cosines_km(a.lat, a.lon, b.lat, b.lon)
        assert oracle > 0
        worst = max(worst, abs(ours - oracle) / oracle)
    assert worst < 1e-6


def test_haversine_spec_pair_against_oracle():
    a = GeoPoint(19.37, -99.18)
    b = GeoPoint(19.40, -99.10)
    oracle = reference.law_of_cosines_km(a.lat, a.lon, b.lat, b.lon)
    assert haversine(a, b) == pytest.approx(oracle, rel=1e-6)


@given(lat_st, lon_st, lat_st, lon_st)
def test_haversine_symmetric_nonnegative_bounded(lat1, lon1, lat2, lon2):
    a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
    d = haversine(a, b)
    assert d >= 0.0
    assert d == haversine(b, a)
    assert d <= math.pi * EARTH_RADIUS_KM


def test_haversine_antipodal_pairs_give_half_circumference():
    # alpha rounds above 1 for 124 of these latitudes; it is capped at 1
    half = math.pi * EARTH_RADIUS_KM
    assert haversine(GeoPoint(0.988, 0), GeoPoint(-0.988, 180)) == pytest.approx(half)
    assert haversine(GeoPoint(89.945, 0), GeoPoint(-89.945, 180)) == pytest.approx(half)
    for lat in np.linspace(-1.0, 1.0, 2001):
        d = haversine(GeoPoint(lat, 0), GeoPoint(-lat, 180))
        assert d == pytest.approx(half, rel=1e-6)


# ---------------------------------------------------------------- detour


def test_detour_factor_all_direct():
    trips = [_trip(DEPOT, GeoPoint(19.4, -99.1), 1.0) for _ in range(3)]
    factor, outliers = detour_factor(trips)
    assert factor == pytest.approx(1.0)
    assert outliers == ()


def test_detour_factor_fixture_with_outlier():
    pts = [GeoPoint(19.40, -99.10), GeoPoint(19.45, -99.00), GeoPoint(19.35, -98.90)]
    trips = [
        _trip(DEPOT, pts[0], 1.2),
        _trip(DEPOT, pts[1], 1.4),
        _trip(DEPOT, pts[2], 2.0),
        _trip(DEPOT, pts[0], 5.0),
    ]
    factor, outliers = detour_factor(trips)
    assert factor == pytest.approx((1.2 + 1.4 + 2.0) / 3, rel=1e-12)
    assert outliers == (3,)


def test_detour_factor_boundary_ratio_is_kept():
    trips = [_trip(DEPOT, GeoPoint(19.5, -99.0), 3.0)]
    factor, outliers = detour_factor(trips)
    assert factor == pytest.approx(3.0)
    assert outliers == ()


def test_detour_factor_zero_leg_flagged():
    trips = [
        _trip(DEPOT, GeoPoint(19.5, -99.0), 1.5),
        TripRecord(pickup=DEPOT, dropoff=DEPOT, recorded_km=4.0),
    ]
    factor, outliers = detour_factor(trips)
    assert factor == pytest.approx(1.5)
    assert outliers == (1,)


def test_detour_factor_all_outliers_is_error():
    trips = [_trip(DEPOT, GeoPoint(19.5, -99.0), 9.0)]
    with pytest.raises(BdmtspError):
        detour_factor(trips)
    with pytest.raises(BdmtspError):
        detour_factor([])


def test_detour_factor_invariant_under_reordering():
    rng = np.random.default_rng(5)
    trips = [
        _trip(
            GeoPoint(rng.uniform(19, 20), rng.uniform(-99.5, -98.1)),
            GeoPoint(rng.uniform(19, 20), rng.uniform(-99.5, -98.1)),
            rng.uniform(0.9, 6.0),
        )
        for _ in range(40)
    ]
    factor, outliers = detour_factor(trips)
    perm = rng.permutation(len(trips))
    factor2, outliers2 = detour_factor([trips[i] for i in perm])
    assert factor2 == pytest.approx(factor, rel=1e-12)
    assert sorted(perm[list(outliers2)]) == sorted(outliers)


def test_repair_outliers_identity_without_outliers():
    trips = [_trip(DEPOT, GeoPoint(19.5, -99.0), 1.4)]
    assert repair_outliers(trips, factor=1.5) == trips


def test_repair_outliers_replaces_with_scaled_haversine():
    dest = GeoPoint(19.5, -99.0)
    d_h = haversine(DEPOT, dest)
    trips = [_trip(DEPOT, dest, 5.0)]
    repaired = repair_outliers(trips, factor=1.5)
    assert repaired[0].recorded_km == pytest.approx(1.5 * d_h, rel=1e-12)
    # source untouched
    assert trips[0].recorded_km == pytest.approx(5.0 * d_h, rel=1e-12)


def test_repair_outliers_lowers_mean_ratio():
    rng = np.random.default_rng(11)
    for trial in range(20):
        trips = [
            _trip(
                GeoPoint(rng.uniform(19, 20), rng.uniform(-99.5, -98.1)),
                GeoPoint(rng.uniform(19, 20), rng.uniform(-99.5, -98.1)),
                rng.uniform(0.9, 8.0),
            )
            for _ in range(30)
        ]
        factor, outliers = detour_factor(trips)
        if not outliers:
            continue
        repaired = repair_outliers(trips, factor)
        before = np.mean([t.recorded_km / haversine(t.pickup, t.dropoff) for t in trips])
        after = np.mean(
            [t.recorded_km / haversine(t.pickup, t.dropoff) for t in repaired]
        )
        assert after <= before


def test_repair_outliers_requires_positive_factor():
    with pytest.raises(BdmtspError):
        repair_outliers([], factor=0.0)


def test_geopoint_validation():
    with pytest.raises(BdmtspError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(BdmtspError):
        GeoPoint(0.0, 190.0)
    with pytest.raises(BdmtspError):
        TripRecord(pickup=DEPOT, dropoff=DEPOT, recorded_km=-1.0)
