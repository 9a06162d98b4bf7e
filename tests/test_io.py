"""Parser and converter tests: TSPLIB subset, taxi CSV."""

import math
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdmtsp.io
from bdmtsp.core import BdmtspError, ParseError
from bdmtsp.geometry import EARTH_RADIUS_KM, GeoPoint, TripRecord, _great_circle, haversine
from bdmtsp.io import load_taxi_csv, parse_tsplib, trips_to_instance

import reference

EUC3 = """NAME : tiny
TYPE : TSP
DIMENSION : 3
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0.0 0.0
2 3.0 4.0
3 6.0 8.0
EOF
"""

FULL3 = """NAME : grid
DIMENSION : 3
EDGE_WEIGHT_TYPE : EXPLICIT
EDGE_WEIGHT_FORMAT : FULL_MATRIX
EDGE_WEIGHT_SECTION
0.0 1.5 2.0
1.5 0.0 2.5
2.0 2.5 0.0
EOF
"""

class TestParseTsplib:
    def test_euc2d_fixture(self):
        inst = parse_tsplib(EUC3)
        assert inst.name == "tiny"
        assert inst.dist is None
        assert inst.n == 3
        assert np.array_equal(inst.coords, [[0, 0], [3, 4], [6, 8]])
        assert reference.distance(inst, 0, 1) == 5.0

    def test_explicit_full_matrix(self):
        inst = parse_tsplib(FULL3)
        assert inst.coords is None
        assert reference.distance(inst, 0, 1) == 1.5  # real-valued entries survive
        want = [[0.0, 1.5, 2.0], [1.5, 0.0, 2.5], [2.0, 2.5, 0.0]]
        assert np.array_equal(inst.dist, want)

    def test_huge_dimension_checked_before_allocation(self):
        text = EUC3.replace("DIMENSION : 3", "DIMENSION : 100000000000000")
        with pytest.raises(ParseError, match="expected 100000000000000 coordinate rows"):
            parse_tsplib(text)

    def test_euc2d_coordinates_parse_exactly(self):
        # 17 significant digits name every double exactly
        rng = np.random.default_rng(6)
        coords = rng.uniform(0, 1000, size=(9, 2))
        rows = "\n".join(f"{i} {x:.17g} {y:.17g}" for i, (x, y) in enumerate(coords, 1))
        text = f"NAME : rt\nDIMENSION : 9\nNODE_COORD_SECTION\n{rows}\nEOF\n"
        assert np.array_equal(parse_tsplib(text).coords, coords)

    @pytest.mark.parametrize(
        "layout,entries",
        [
            ("LOWER_ROW", "1.0\n2.0 3.0"),
            ("UPPER_ROW", "1.0 2.0\n3.0"),
            ("LOWER_DIAG_ROW", "0.0\n1.0 0.0\n2.0 3.0 0.0"),
            ("UPPER_DIAG_ROW", "0.0 1.0 2.0\n0.0 3.0\n0.0"),
            # n = 4: row-major and column-major triangle orders differ
            ("LOWER_ROW", "1\n2 3\n4 5 6"),
            ("UPPER_ROW", "1 2 4\n3 5\n6"),
            ("LOWER_DIAG_ROW", "0\n1 0\n2 3 0\n4 5 6 0"),
            ("UPPER_DIAG_ROW", "0 1 2 4\n0 3 5\n0 6\n0"),
        ],
    )
    def test_triangular_layouts(self, layout, entries):
        # one line per matrix row; the non-diagonal triangles skip a row
        n = len(entries.splitlines()) + (layout in ("LOWER_ROW", "UPPER_ROW"))
        text = (
            f"NAME : tri\nDIMENSION : {n}\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
            f"EDGE_WEIGHT_FORMAT : {layout}\nEDGE_WEIGHT_SECTION\n{entries}\nEOF\n"
        )
        inst = parse_tsplib(text)
        want = {
            3: [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]],
            4: [[0, 1, 2, 4], [1, 0, 3, 5], [2, 3, 0, 6], [4, 5, 6, 0]],
        }[n]
        assert np.array_equal(inst.dist, np.array(want, dtype=float))

    def test_entries_may_flow_across_lines(self):
        text = (
            "NAME : flow\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
            "EDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n"
            "0 1.5 2\n2.5 0\n3.5 4.5 5.5 0\nEOF\n"
        )
        inst = parse_tsplib(text)
        assert reference.distance(inst, 1, 0) == 2.5
        assert reference.distance(inst, 2, 1) == 5.5

    def test_berlin52_file(self, data_dir):
        inst = parse_tsplib((data_dir / "berlin52.tsp").read_text())
        assert inst.n == 52
        assert tuple(inst.coords[0]) == (565.0, 575.0)

    def test_eil51_file(self, data_dir):
        inst = parse_tsplib((data_dir / "eil51.tsp").read_text())
        assert inst.n == 51
        assert tuple(inst.coords[0]) == (37.0, 52.0)

    def test_unknown_edge_weight_type(self):
        with pytest.raises(ParseError):
            parse_tsplib(EUC3.replace("EUC_2D", "GEO"))

    def test_dimension_mismatch(self):
        with pytest.raises(ParseError):
            parse_tsplib(EUC3.replace("DIMENSION : 3", "DIMENSION : 4"))
        bad = FULL3.replace("2.0 2.5 0.0\n", "")
        with pytest.raises(ParseError):
            parse_tsplib(bad)

    def test_header_errors(self):
        with pytest.raises(ParseError):
            parse_tsplib("NAME : x\nEDGE_WEIGHT_TYPE : EUC_2D\nEOF\n")
        with pytest.raises(ParseError):
            parse_tsplib(EUC3.replace("1 0.0 0.0", "1 zero 0.0"))
        with pytest.raises(ParseError):
            parse_tsplib(FULL3.replace("EDGE_WEIGHT_FORMAT : FULL_MATRIX",
                                       "EDGE_WEIGHT_FORMAT : FUNCTION"))

    @pytest.mark.parametrize(
        "row",
        [
            "2 nan 4.0", "2 3.0 inf", "2 1.1e150 4.0", "2 3.0 -1.1e150",
            "1 3.0 4.0", "0 3.0 4.0", "4 3.0 4.0", "2.0 3.0 4.0",
        ],
    )
    def test_bad_coordinate_row_rejected(self, row):
        # non-finite values, values past the coordinate bound, a duplicate
        # id, ids outside 1..n, a non-integer id
        with pytest.raises(ParseError):
            parse_tsplib(EUC3.replace("2 3.0 4.0", row))

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ParseError):
            parse_tsplib(FULL3.replace("0.0 1.5 2.0", "0.1 1.5 2.0"))  # diag
        with pytest.raises(ParseError):
            parse_tsplib(FULL3.replace("1.5 0.0 2.5", "-1.5 0.0 2.5"))


def _taxi_row(
    t="2016-12-10 09:00:00",
    plat=19.40,
    plon=-99.15,
    dlat=19.42,
    dlon=-99.10,
    dur_s=600,
    dist_m=4000,
    wait_s=300,
):
    return f"{t},{plat},{plon},{dlat},{dlon},{dur_s},{dist_m},{wait_s}"


TAXI_HEADER = (
    "pickup_datetime,pickup_latitude,pickup_longitude,dropoff_latitude,"
    "dropoff_longitude,trip_duration,dist_meters,wait_sec"
)


class TestLoadTaxiCsv:
    def test_ten_rows_three_violations(self):
        rows = [_taxi_row() for _ in range(7)]
        rows.append(_taxi_row(wait_s=91 * 60))  # wait over the line
        rows.append(_taxi_row(dur_s=181 * 60))
        rows.append(_taxi_row(dist_m=101_000))
        text = TAXI_HEADER + "\n" + "\n".join(rows) + "\n"
        result = load_taxi_csv(text)
        assert result.total_rows == 10
        assert result.kept == len(result.trips) == 7
        assert result.dropped == 3
        assert result.malformed == 0

    def test_thresholds_are_inclusive(self):
        text = TAXI_HEADER + "\n" + "\n".join(
            [
                _taxi_row(wait_s=90 * 60, dur_s=180 * 60, dist_m=100_000),
                _taxi_row(wait_s=90 * 60 + 1),
            ]
        )
        result = load_taxi_csv(text)
        assert result.kept == 1 and result.dropped == 1

    def test_pickup_box(self):
        text = TAXI_HEADER + "\n" + "\n".join(
            [
                _taxi_row(plat=20.5),  # north of the box
                _taxi_row(plat=18.9),
                _taxi_row(plon=-97.5),  # east of the box
                _taxi_row(plon=-98.0),  # boundary is strict
                _taxi_row(plat=19.0),  # on the inclusive edge
            ]
        )
        result = load_taxi_csv(text)
        assert result.kept == 1
        assert result.trips[0].pickup.lat == 19.0

    def test_malformed_rows_counted_not_fatal(self):
        text = TAXI_HEADER + "\n" + "\n".join(
            [_taxi_row(), _taxi_row(plat="not-a-number"), _taxi_row(t="yesterday")]
        )
        result = load_taxi_csv(text)
        assert result.kept == 1
        assert result.malformed == 2

    def test_missing_column_is_hard_error(self):
        with pytest.raises(ParseError):
            load_taxi_csv("pickup_datetime,foo\n2016-01-01 00:00:00,1\n")

    def test_sorted_by_timestamp_then_row_order(self):
        text = TAXI_HEADER + "\n" + "\n".join(
            [
                _taxi_row(t="2016-12-10 10:00:00", dist_m=3000),
                _taxi_row(t="2016-12-10 08:00:00", dist_m=1000),
                _taxi_row(t="2016-12-10 10:00:00", dist_m=2000),
            ]
        )
        result = load_taxi_csv(text)
        kms = [trip.recorded_km for trip in result.trips]
        assert kms == [1.0, 3.0, 2.0]
        assert result.trips[0].timestamp == datetime(2016, 12, 10, 8, 0, 0)

    def test_mixed_utc_offsets_rejected(self):
        # aware and naive timestamps cannot be ordered against each other
        text = TAXI_HEADER + "\n" + "\n".join(
            [_taxi_row(t="2016-01-01T10:00:00+00:00"), _taxi_row(t="2016-01-01T09:00:00")]
        )
        with pytest.raises(ParseError, match="pickup_datetime .* data row 2 differs"):
            load_taxi_csv(text)

    def test_offsets_of_dropped_rows_are_not_checked(self):
        text = TAXI_HEADER + "\n" + "\n".join(
            [
                _taxi_row(t="2016-01-01T10:00:00+00:00"),
                _taxi_row(t="2016-01-01T09:00:00", wait_s=91 * 60),  # dropped
                _taxi_row(t="2016-01-01 08:00", plat="x"),  # malformed
            ]
        )
        result = load_taxi_csv(text)
        assert (result.kept, result.dropped, result.malformed) == (1, 1, 1)

    def test_all_offset_timestamps_sort_by_instant(self):
        text = TAXI_HEADER + "\n" + "\n".join(
            [
                _taxi_row(t="2016-01-01T10:00:00+00:00", dist_m=1000),
                _taxi_row(t="2016-01-01T09:30:00-01:00", dist_m=2000),  # 10:30 UTC
                _taxi_row(t="2016-01-01T11:00:00+01:00", dist_m=3000),  # 10:00 UTC
            ]
        )
        kms = [trip.recorded_km for trip in load_taxi_csv(text).trips]
        assert kms == [1.0, 3.0, 2.0]

    def test_unit_conversion(self):
        result = load_taxi_csv(TAXI_HEADER + "\n" + _taxi_row())
        trip = result.trips[0]
        assert trip.recorded_km == 4.0
        assert trip.duration_min == 10.0
        assert trip.wait_min == 5.0

    def test_all_kept_satisfy_filters(self):
        rows = [
            _taxi_row(plat=19.0 + 0.11 * i, wait_s=1200 * i, dist_m=30_000 * i + 500)
            for i in range(8)
        ]
        result = load_taxi_csv(TAXI_HEADER + "\n" + "\n".join(rows))
        for trip in result.trips:
            assert trip.wait_min <= 90 and trip.duration_min <= 180
            assert trip.recorded_km <= 100
            assert 19 <= trip.pickup.lat <= 20 and trip.pickup.lon < -98
        assert result.kept + result.dropped + result.malformed == result.total_rows


def _trip(plat, plon, dlat, dlon, km=1.0):
    return TripRecord(
        pickup=GeoPoint(plat, plon), dropoff=GeoPoint(dlat, dlon), recorded_km=km
    )


_coord = st.floats(-80.0, 80.0)
_point = st.builds(GeoPoint, lat=_coord, lon=_coord)


@st.composite
def _trip_logs(draw):
    """A depot plus 1-20 trips (more than one row block); some trips start
    where the previous one ended."""
    depot = draw(_point)
    trips = []
    for _ in range(draw(st.integers(1, 20))):
        pickup = trips[-1].dropoff if trips and draw(st.booleans()) else draw(_point)
        trips.append(TripRecord(pickup=pickup, dropoff=draw(_point), recorded_km=1.0))
    return depot, trips


class TestTripsToInstance:
    DEPOT = GeoPoint(19.3702, -99.1799)

    def test_chained_trip_gives_zero_entry(self):
        a = _trip(19.40, -99.15, 19.45, -99.10)
        b = _trip(19.45, -99.10, 19.50, -99.20)  # starts where a ended
        inst, _ = trips_to_instance([a, b], self.DEPOT)
        assert reference.distance(inst, 1, 2) == 0.0
        assert reference.distance(inst, 2, 1) > 0.0

    def test_matrix_matches_haversine_oracle(self):
        trips = [
            _trip(19.40, -99.15, 19.45, -99.10, km=3.0),
            _trip(19.35, -99.05, 19.55, -99.25, km=5.5),
            _trip(19.60, -99.30, 19.38, -99.18, km=4.0),
        ]
        inst, internal = trips_to_instance(trips, self.DEPOT)
        assert inst.n == 4
        assert inst.coords is None
        assert internal == pytest.approx(12.5)
        for k, trip in enumerate(trips, start=1):
            assert reference.distance(inst, 0, k) == haversine(self.DEPOT, trip.pickup)
            assert reference.distance(inst, k, 0) == haversine(trip.dropoff, self.DEPOT)
        for a, ta in enumerate(trips, start=1):
            for b, tb in enumerate(trips, start=1):
                if a != b:
                    assert reference.distance(inst, a, b) == haversine(ta.dropoff, tb.pickup)

    def test_dense_city_log_equals_scalar_haversine(self):
        # about 32k entries: enough that a second great-circle formula
        # beside the kernel fails, e.g. one on math.atan2 and ** 2, which
        # differs from numpy's arctan2 and x * x in 13 of these entries
        rng = np.random.default_rng(7)
        lat = rng.uniform(19.3, 19.5, (180, 2)).tolist()
        lon = rng.uniform(-99.25, -99.05, (180, 2)).tolist()
        trips = [_trip(la[0], lo[0], la[1], lo[1]) for la, lo in zip(lat, lon)]
        inst, _ = trips_to_instance(trips, self.DEPOT)
        starts = [self.DEPOT] + [t.dropoff for t in trips]
        ends = [self.DEPOT] + [t.pickup for t in trips]
        expect = [
            [0.0 if a == b else haversine(p, q) for b, q in enumerate(ends)]
            for a, p in enumerate(starts)
        ]
        assert np.array_equal(inst.dist, np.array(expect))

    @settings(max_examples=60, deadline=None)
    @given(_trip_logs())
    def test_every_entry_equals_scalar_haversine(self, log):
        depot, trips = log
        inst, _ = trips_to_instance(trips, depot)
        starts = [depot] + [t.dropoff for t in trips]
        ends = [depot] + [t.pickup for t in trips]
        for a, p in enumerate(starts):
            for b, q in enumerate(ends):
                assert inst.dist[a, b] == (0.0 if a == b else haversine(p, q))
        for k in range(1, len(trips)):
            if trips[k].pickup == trips[k - 1].dropoff:
                assert inst.dist[k, k + 1] == 0.0

    def test_antipodal_legs_equal_scalar_haversine(self):
        # alpha rounds above 1 for these pairs unless it is capped
        a = _trip(0.5, 10.0, 0.988, 0.0)
        b = _trip(-0.988, 180.0, 0.2, 20.0)
        depot = GeoPoint(-0.988, 180.0)
        inst, _ = trips_to_instance([a, b], depot)
        assert inst.dist[1, 2] == haversine(a.dropoff, b.pickup)
        assert inst.dist[1, 0] == haversine(a.dropoff, depot)
        assert inst.dist[1, 2] == pytest.approx(math.pi * EARTH_RADIUS_KM)

    def test_one_kernel_call_per_row_block(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(np.broadcast_shapes(*map(np.shape, args)))
            return _great_circle(*args)

        monkeypatch.setattr(bdmtsp.io, "_great_circle", counting)
        trips = [_trip(19.4, -99.1 + k / 1000, 19.5, -99.2) for k in range(20)]
        trips_to_instance(trips, self.DEPOT)
        assert calls == [(20,), (20,), (8, 20), (8, 20), (4, 20)]

    def test_internal_length_sums_left_to_right(self):
        kms = (1.0, 1e-16, 1e-16)
        trips = [_trip(19.4, -99.1, 19.5, -99.2, km=km) for km in kms]
        _, internal = trips_to_instance(trips, self.DEPOT)
        assert internal.hex() == (1.0).hex()

    def test_empty_rejected(self):
        with pytest.raises(BdmtspError):
            trips_to_instance([], self.DEPOT)
