"""Planar and great-circle geometry plus taxi-trip detour estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import datetime
from typing import Iterable, Sequence

from .core import BdmtspError

__all__ = [
    "EARTH_RADIUS_KM",
    "GeoPoint",
    "TripRecord",
    "haversine",
    "detour_factor",
    "repair_outliers",
]

EARTH_RADIUS_KM = 6378.4


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (-90.0 <= self.lat <= 90.0):
            raise BdmtspError(f"latitude {self.lat} out of range")
        if not (-180.0 <= self.lon <= 180.0):
            raise BdmtspError(f"longitude {self.lon} out of range")


@dataclass(frozen=True)
class TripRecord:
    """One taxi trip: endpoints plus odometer-style recorded distance."""

    pickup: GeoPoint
    dropoff: GeoPoint
    recorded_km: float
    duration_min: float = 0.0
    wait_min: float = 0.0
    timestamp: datetime | None = None

    def __post_init__(self) -> None:
        if self.recorded_km < 0:
            raise BdmtspError("recorded distance must be nonnegative")


def haversine(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in km.

    Uses the arctan2 form, which stays accurate for nearby points where
    the arccos variant loses digits.  Near antipodal points ``alpha`` can
    round above 1, so it is capped there.
    """
    dlat = math.radians(b.lat - a.lat)
    dlon = math.radians(b.lon - a.lon)
    alpha = min(
        math.sin(dlat / 2.0) ** 2
        + math.cos(math.radians(a.lat))
        * math.cos(math.radians(b.lat))
        * math.sin(dlon / 2.0) ** 2,
        1.0,
    )
    return 2.0 * EARTH_RADIUS_KM * math.atan2(math.sqrt(alpha), math.sqrt(1.0 - alpha))


# A trip whose recorded distance exceeds this multiple of the great-circle
# distance between its endpoints is an odometer outlier.
_OUTLIER_RATIO = 3.0


def _is_outlier(trip: TripRecord) -> tuple[bool, float, float]:
    """(outlier?, recorded/great-circle ratio, great-circle km).

    A trip is an outlier when its ratio is above ``_OUTLIER_RATIO`` or is
    not a number, or when its endpoints coincide (ratio reported as nan).
    """
    d_h = haversine(trip.pickup, trip.dropoff)
    if d_h == 0.0:
        return True, math.nan, d_h
    ratio = trip.recorded_km / d_h
    return not ratio <= _OUTLIER_RATIO, ratio, d_h


def detour_factor(trips: Iterable[TripRecord]) -> tuple[float, tuple[int, ...]]:
    """Mean recorded/great-circle ratio over plausible trips.

    Trips whose ratio exceeds ``_OUTLIER_RATIO`` (or whose endpoints
    coincide) are excluded from the mean and reported as outlier indices.
    Raises when no trip survives the filter.
    """
    trips = list(trips)
    if not trips:
        raise BdmtspError("no trips given")
    ratios = []
    outliers = []
    for i, trip in enumerate(trips):
        outlier, ratio, _ = _is_outlier(trip)
        if outlier:
            outliers.append(i)
        else:
            ratios.append(ratio)
    if not ratios:
        raise BdmtspError("every trip was an outlier; cannot estimate detour")
    return sum(ratios) / len(ratios), tuple(outliers)


def repair_outliers(trips: Sequence[TripRecord], factor: float) -> list[TripRecord]:
    """Replace outlier recorded distances by factor * great-circle distance.

    Non-outlier trips are returned unchanged; the input is not mutated.
    """
    if factor <= 0:
        raise BdmtspError("detour factor must be positive")
    repaired = []
    for trip in trips:
        outlier, _, d_h = _is_outlier(trip)
        repaired.append(replace(trip, recorded_km=factor * d_h) if outlier else trip)
    return repaired
