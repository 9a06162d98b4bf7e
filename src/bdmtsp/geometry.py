"""Great-circle geometry plus taxi-trip detour estimation.

One numpy kernel, ``_great_circle``, computes every great-circle
distance: the scalar ``haversine``, the taxi trip matrix and the detour
ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime
from typing import Iterable, Sequence

import numpy as np

from .core import BdmtspError, _sum_left

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


def _great_circle(lat_a, lon_a, lat_b, lon_b):
    """Great-circle distance in km from each point a to each point b.

    The one great-circle kernel: the arguments broadcast like a ufunc's,
    and a scalar call gives the same bits as any block entry.  Uses the
    arctan2 form, which stays accurate for nearby points where the arccos
    variant loses digits.  Near antipodal points ``alpha`` can round
    above 1, so it is capped there.
    """
    s_lat = np.sin(np.radians(lat_b - lat_a) / 2.0)
    s_lon = np.sin(np.radians(lon_b - lon_a) / 2.0)
    cos_ab = np.cos(np.radians(lat_a)) * np.cos(np.radians(lat_b))
    alpha = np.minimum(s_lat * s_lat + cos_ab * (s_lon * s_lon), 1.0)
    return 2.0 * EARTH_RADIUS_KM * np.arctan2(np.sqrt(alpha), np.sqrt(1.0 - alpha))


def haversine(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in km between two points."""
    return float(_great_circle(a.lat, a.lon, b.lat, b.lon))


# A trip whose recorded distance exceeds this multiple of the great-circle
# distance between its endpoints is an odometer outlier.
_OUTLIER_RATIO = 3.0


def _outliers(trips: Sequence[TripRecord]) -> tuple[list[bool], list[float], list[float]]:
    """Per trip: outlier?, recorded/great-circle ratio, great-circle km.

    A trip is an outlier when its ratio is above ``_OUTLIER_RATIO`` or is
    not a number, or when its endpoints coincide.
    """
    d_h = _great_circle(
        np.array([t.pickup.lat for t in trips], dtype=float),
        np.array([t.pickup.lon for t in trips], dtype=float),
        np.array([t.dropoff.lat for t in trips], dtype=float),
        np.array([t.dropoff.lon for t in trips], dtype=float),
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.array([t.recorded_km for t in trips], dtype=float) / d_h
    outlier = (d_h == 0.0) | ~(ratio <= _OUTLIER_RATIO)
    return outlier.tolist(), ratio.tolist(), d_h.tolist()


def detour_factor(trips: Iterable[TripRecord]) -> tuple[float, tuple[int, ...]]:
    """Mean recorded/great-circle ratio over plausible trips.

    Trips whose ratio exceeds ``_OUTLIER_RATIO`` (or whose endpoints
    coincide) are excluded from the mean and reported as outlier indices.
    Raises when no trip survives the filter.
    """
    trips = list(trips)
    if not trips:
        raise BdmtspError("no trips given")
    outlier, ratio, _ = _outliers(trips)
    ratios = [r for out, r in zip(outlier, ratio) if not out]
    if not ratios:
        raise BdmtspError("every trip was an outlier; cannot estimate detour")
    outliers = tuple(i for i, out in enumerate(outlier) if out)
    return _sum_left(ratios) / len(ratios), outliers


def repair_outliers(trips: Sequence[TripRecord], factor: float) -> list[TripRecord]:
    """Replace outlier recorded distances by factor * great-circle distance.

    Non-outlier trips are returned unchanged; the input is not mutated.
    """
    if factor <= 0:
        raise BdmtspError("detour factor must be positive")
    outlier, _, d_h = _outliers(trips)
    return [
        replace(trip, recorded_km=factor * d) if out else trip
        for trip, out, d in zip(trips, outlier, d_h)
    ]
