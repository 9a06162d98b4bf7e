"""Instance parsers and dataset converters.

Covers a practical subset of the TSPLIB text format (EUC_2D node
coordinates and explicit edge-weight matrices) and taxi-trip CSV
ingestion with the standard cleaning filters.  The taxi trip matrix is
filled by the great-circle kernel that ``geometry`` owns.
"""

from __future__ import annotations

import csv
import io as _stdio
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import BdmtspError, ParseError, RoutingInstance, _sum_left
from .geometry import GeoPoint, TripRecord, _great_circle
from .geometry import haversine  # unused here; perfbench traces bdmtsp.io.haversine

__all__ = [
    "TaxiLoadResult",
    "read_text",
    "parse_tsplib",
    "load_taxi_csv",
    "trips_to_instance",
]


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``; other bytes are a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


# ------------------------------------------------------------- TSPLIB

_EXPLICIT_FORMATS = {
    "FULL_MATRIX",
    "LOWER_ROW",
    "UPPER_ROW",
    "LOWER_DIAG_ROW",
    "UPPER_DIAG_ROW",
}


def _split_header(text: str) -> tuple[dict[str, str], list[tuple[str, list[str]]]]:
    """Key/value header fields plus ordered (section, lines) blocks."""
    fields: dict[str, str] = {}
    sections: list[tuple[str, list[str]]] = []
    current: list[str] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line == "EOF":
            break
        upper = line.upper()
        if upper.endswith("_SECTION"):
            current = []
            sections.append((upper, current))
            continue
        if ":" in line and current is None:
            key, _, value = line.partition(":")
            fields[key.strip().upper()] = value.strip()
            continue
        if current is None:
            raise ParseError(f"unexpected line outside any section: {line!r}")
        current.append(line)
    return fields, sections


def _section(sections, name: str) -> list[str] | None:
    for sec, lines in sections:
        if sec == name:
            return lines
    return None


def _parse_coords(lines: Sequence[str], n: int) -> np.ndarray:
    """Coordinate rows in file order; the ids must be a permutation of 1..n."""
    if len(lines) != n:
        raise ParseError(f"expected {n} coordinate rows, found {len(lines)}")
    coords = np.empty((n, 2))
    seen: set[int] = set()
    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"bad coordinate row: {line!r}")
        try:
            node = int(parts[0])
            coords[i] = (float(parts[1]), float(parts[2]))
        except ValueError:
            raise ParseError(f"bad coordinate row: {line!r}") from None
        if not 1 <= node <= n:
            raise ParseError(f"node id {node} outside 1..{n}")
        if node in seen:
            raise ParseError(f"duplicate node id {node}")
        seen.add(node)
    return coords


def _parse_explicit(lines: Sequence[str], n: int, layout: str) -> np.ndarray:
    values: list[float] = []
    for line in lines:
        for tok in line.split():
            try:
                values.append(float(tok))
            except ValueError:
                raise ParseError(f"bad matrix entry {tok!r}") from None
    expected = {
        "FULL_MATRIX": n * n,
        "LOWER_ROW": n * (n - 1) // 2,
        "UPPER_ROW": n * (n - 1) // 2,
        "LOWER_DIAG_ROW": n * (n + 1) // 2,
        "UPPER_DIAG_ROW": n * (n + 1) // 2,
    }[layout]
    if len(values) != expected:
        raise ParseError(
            f"{layout} needs {expected} entries for dimension {n}, got {len(values)}"
        )
    if layout == "FULL_MATRIX":
        return np.array(values).reshape(n, n)
    # Row-major triangle indices visit entries in the file's row order.
    k = 0 if layout.endswith("DIAG_ROW") else 1
    if layout.startswith("LOWER"):
        rows, cols = np.tril_indices(n, -k)
    else:
        rows, cols = np.triu_indices(n, k)
    dist = np.zeros((n, n))
    dist[rows, cols] = values
    dist[cols, rows] = values
    return dist


def parse_tsplib(text: str) -> RoutingInstance:
    """Parse a TSPLIB-style instance.

    Supports EUC_2D coordinate instances and EXPLICIT matrices in full
    or triangular row layouts.  Node order in the file is preserved: the
    first node is the depot, and the rest are revealed in file order.
    Distances are kept real-valued.
    """
    fields, sections = _split_header(text)
    name = fields.get("NAME", "unnamed")
    try:
        n = int(fields["DIMENSION"])
    except KeyError:
        raise ParseError("missing DIMENSION") from None
    except ValueError:
        raise ParseError(f"bad DIMENSION {fields['DIMENSION']!r}") from None
    if n < 2:
        raise ParseError("dimension must be at least 2")
    ewt = fields.get("EDGE_WEIGHT_TYPE", "EUC_2D").upper()
    if ewt == "EUC_2D":
        lines = _section(sections, "NODE_COORD_SECTION")
        if lines is None:
            raise ParseError("EUC_2D instance lacks NODE_COORD_SECTION")
        data = {"coords": _parse_coords(lines, n)}
    elif ewt == "EXPLICIT":
        layout = fields.get("EDGE_WEIGHT_FORMAT", "FULL_MATRIX").upper()
        if layout not in _EXPLICIT_FORMATS:
            raise ParseError(f"unsupported EDGE_WEIGHT_FORMAT {layout!r}")
        lines = _section(sections, "EDGE_WEIGHT_SECTION")
        if lines is None:
            raise ParseError("EXPLICIT instance lacks EDGE_WEIGHT_SECTION")
        data = {"dist": _parse_explicit(lines, n, layout)}
    else:
        raise ParseError(f"unsupported EDGE_WEIGHT_TYPE {ewt!r}")
    try:
        return RoutingInstance(name=name, **data)
    except BdmtspError as exc:
        raise ParseError(str(exc)) from None


# --------------------------------------------------------------- taxi


# Trip log header: pickup and dropoff in degrees, the pickup time, the
# duration and the wait in seconds, and the recorded distance in meters.
_COLUMNS = (
    "pickup_latitude",
    "pickup_longitude",
    "dropoff_latitude",
    "dropoff_longitude",
    "pickup_datetime",
    "trip_duration",
    "dist_meters",
    "wait_sec",
)


def _keeps(trip: TripRecord) -> bool:
    """The study's cleaning cuts: waits up to 90 min, trips up to 180 min
    and 100 km, pickups in the 19-20 N band west of 98 W."""
    return (
        trip.wait_min <= 90.0
        and trip.duration_min <= 180.0
        and trip.recorded_km <= 100.0
        and 19.0 <= trip.pickup.lat <= 20.0
        and trip.pickup.lon < -98.0
    )


@dataclass(frozen=True)
class TaxiLoadResult:
    """Kept trips plus ingestion counts."""

    trips: tuple[TripRecord, ...]
    total_rows: int
    kept: int
    dropped: int
    malformed: int


def load_taxi_csv(text: str) -> TaxiLoadResult:
    """Read trip rows, drop filtered ones, and sort by pickup time.

    Malformed rows are skipped and counted; a missing column, or kept
    rows that mix timestamps with and without a UTC offset, is a hard
    error.  The returned order (timestamp, then original row order) is
    the reveal order for dynamic scenarios.
    """
    reader = csv.DictReader(_stdio.StringIO(text))
    if reader.fieldnames is None:
        raise ParseError("empty CSV input")
    missing = [c for c in _COLUMNS if c not in reader.fieldnames]
    if missing:
        raise ParseError(f"missing columns: {', '.join(missing)}")
    kept: list[tuple[datetime, int, TripRecord]] = []
    total = dropped = malformed = 0
    for row_idx, row in enumerate(reader):
        total += 1
        try:
            plat, plon, dlat, dlon, when, duration_s, dist_m, wait_s = (
                row[c] for c in _COLUMNS
            )
            trip = TripRecord(
                pickup=GeoPoint(lat=float(plat), lon=float(plon)),
                dropoff=GeoPoint(lat=float(dlat), lon=float(dlon)),
                recorded_km=float(dist_m) / 1000.0,
                duration_min=float(duration_s) / 60.0,
                wait_min=float(wait_s) / 60.0,
                timestamp=datetime.fromisoformat(when),
            )
        except (BdmtspError, TypeError, ValueError):
            malformed += 1
            continue
        if _keeps(trip):
            kept.append((trip.timestamp, row_idx, trip))
        else:
            dropped += 1
    _check_offsets(kept)
    kept.sort(key=lambda item: (item[0], item[1]))
    trips = tuple(trip for _, _, trip in kept)
    return TaxiLoadResult(
        trips=trips,
        total_rows=total,
        kept=len(trips),
        dropped=dropped,
        malformed=malformed,
    )


def _check_offsets(kept: Sequence[tuple[datetime, int, TripRecord]]) -> None:
    """Reject kept rows that mix timestamps with and without a UTC offset;
    such timestamps cannot be ordered against each other."""
    if not kept:
        return
    first_when, first_row, _ = kept[0]
    aware = first_when.utcoffset() is not None
    for when, row_idx, _ in kept:
        if (when.utcoffset() is not None) != aware:
            raise ParseError(
                "pickup_datetime mixes timestamps with and without a UTC offset: "
                f"data row {row_idx + 1} differs from data row {first_row + 1}"
            )


# Rows of the trip matrix computed per kernel call: enough to amortise
# the call overhead, few enough that the block temporaries (a handful of
# 8 x j arrays) stay small next to the (j+1)^2 result.
_ROW_BLOCK = 8


def trips_to_instance(
    trips: Sequence[TripRecord], depot: GeoPoint
) -> tuple[RoutingInstance, float]:
    """Build the trip-to-trip distance matrix plus total internal length.

    Node 0 is the depot; node k is trip k.  Travelling to a trip means
    reaching its pickup, so entry (j, k) is the great-circle distance
    from trip j's dropoff to trip k's pickup, and column 0 returns to
    the depot.  The recorded on-trip distances are summed separately:
    they are driven no matter how trips are scheduled.  Every entry comes
    from the one great-circle kernel, so it is bit-identical to the
    scalar ``haversine`` of its pair.
    """
    if not trips:
        raise BdmtspError("need at least one trip")
    j = len(trips)
    drop_lat = np.array([t.dropoff.lat for t in trips], dtype=float)
    drop_lon = np.array([t.dropoff.lon for t in trips], dtype=float)
    pick_lat = np.array([t.pickup.lat for t in trips], dtype=float)
    pick_lon = np.array([t.pickup.lon for t in trips], dtype=float)
    dist = np.empty((j + 1, j + 1))
    dist[0, 1:] = _great_circle(depot.lat, depot.lon, pick_lat, pick_lon)
    dist[1:, 0] = _great_circle(drop_lat, drop_lon, depot.lat, depot.lon)
    for lo in range(0, j, _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        dist[1 + lo : 1 + lo + _ROW_BLOCK, 1:] = _great_circle(
            drop_lat[rows, None], drop_lon[rows, None], pick_lat, pick_lon
        )
    np.fill_diagonal(dist, 0.0)
    internal = _sum_left(t.recorded_km for t in trips)
    instance = RoutingInstance(name="taxi", dist=dist)
    return instance, internal
