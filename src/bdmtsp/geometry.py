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


def haversine(a: GeoPoint, b: GeoPoint, radius: float = EARTH_RADIUS_KM) -> float:
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
    return 2.0 * radius * math.atan2(math.sqrt(alpha), math.sqrt(1.0 - alpha))


def _trip_ratio(trip: TripRecord) -> tuple[float, float]:
    """(recorded/great-circle ratio, great-circle km); ratio is inf when
    the endpoints coincide but distance was recorded."""
    d_h = haversine(trip.pickup, trip.dropoff)
    if d_h == 0.0:
        return (math.inf if trip.recorded_km > 0 else math.nan), d_h
    return trip.recorded_km / d_h, d_h


def detour_factor(
    trips: Iterable[TripRecord], outlier_ratio: float = 3.0
) -> tuple[float, tuple[int, ...]]:
    """Mean recorded/great-circle ratio over plausible trips.

    Trips whose ratio exceeds ``outlier_ratio`` (or whose endpoints coincide)
    are excluded from the mean and reported as outlier indices.  Raises
    when no trip survives the filter.
    """
    trips = list(trips)
    if not trips:
        raise BdmtspError("no trips given")
    ratios = []
    outliers = []
    for i, trip in enumerate(trips):
        ratio, _ = _trip_ratio(trip)
        if math.isnan(ratio) or math.isinf(ratio) or ratio > outlier_ratio:
            outliers.append(i)
        else:
            ratios.append(ratio)
    if not ratios:
        raise BdmtspError("every trip was an outlier; cannot estimate detour")
    return sum(ratios) / len(ratios), tuple(outliers)


def repair_outliers(
    trips: Sequence[TripRecord], factor: float, outlier_ratio: float = 3.0
) -> list[TripRecord]:
    """Replace outlier recorded distances by factor * great-circle distance.

    Non-outlier trips are returned unchanged; the input is not mutated.
    """
    if factor <= 0:
        raise BdmtspError("detour factor must be positive")
    repaired = []
    for trip in trips:
        ratio, d_h = _trip_ratio(trip)
        if math.isnan(ratio) or math.isinf(ratio) or ratio > outlier_ratio:
            repaired.append(replace(trip, recorded_km=factor * d_h))
        else:
            repaired.append(trip)
    return repaired
