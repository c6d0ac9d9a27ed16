"""Evaluation world: vehicles on a highway cell and packet generation.

The gNB sits at the midpoint of a road segment of twice the cell radius
(`link.CELL_RADIUS_M`), `LANES` lanes wide; vehicles are placed uniformly
along it and keep their position for the whole replication.  A world is
the vehicles' positions, then their arrival streams, each drawn for every
vehicle at once: the positions are one vector draw, periodic phases are a
second, and only aperiodic gaps are drawn vehicle by vehicle.  Lane offsets
are negligible against the cell radius, so no lane is drawn: the distance
to the gNB is the longitudinal distance, and its CQI is read off
`link.linear_cqi_map`.  The radius and the lane count are fixed: each
would only scale the vehicle count, as a higher density does.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .link import CELL_RADIUS_M, linear_cqi_map
from .phy import ConfigurationError, ms_to_ticks

LANES = 6


class Vehicle(NamedTuple):
    id: int
    position_m: float      # signed along the road, gNB at 0
    cqi: int


def vehicle_count(density_veh_km_lane: float) -> int:
    return round(density_veh_km_lane * LANES * 2 * CELL_RADIUS_M / 1000.0)


def place_vehicles(density_veh_km_lane: float, rng: np.random.Generator) -> list[Vehicle]:
    """Vehicles at uniform positions, from one vector draw.

    Each CQI is that of the first map entry whose bound is at or above the
    vehicle's distance, as `link.cqi_from_distance` gives it; one left-sided
    search over the bounds finds them all.
    """
    positions = rng.uniform(-CELL_RADIUS_M, CELL_RADIUS_M, vehicle_count(density_veh_km_lane))
    bounds, cqis = zip(*linear_cqi_map())
    distance = np.abs(positions)
    entry = np.searchsorted(bounds, distance)
    try:
        cqi = np.take(cqis, entry)
    except IndexError:  # a distance past the last bound
        raise ConfigurationError(f"distance {distance.max()} m outside the mapped cell") from None
    return list(map(Vehicle, range(len(positions)), positions.tolist(), cqi.tolist()))


def nearest_neighbours(vehicles: list[Vehicle], m: int) -> list[tuple[int, ...]]:
    """Receiver sets for unicast fan-out: the m closest other vehicles."""
    if m >= len(vehicles):
        raise ConfigurationError(f"need more than {m} vehicles for m={m} receivers")
    order = sorted(vehicles, key=lambda v: v.position_m)
    pos = [v.position_m for v in order]
    ids = [v.id for v in order]
    out: list[tuple[int, ...]] = [()] * len(vehicles)
    for k, v in enumerate(order):
        lo, hi = k - 1, k + 1
        chosen = []
        while len(chosen) < m:
            left = abs(pos[lo] - v.position_m) if lo >= 0 else math.inf
            right = abs(pos[hi] - v.position_m) if hi < len(pos) else math.inf
            if left <= right:
                chosen.append(ids[lo])
                lo -= 1
            else:
                chosen.append(ids[hi])
                hi += 1
        out[v.id] = tuple(chosen)
    return out


def generate_arrivals(kind: str, interval_ms: float, horizon_ms: float, n_ue: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Arrival ticks of `n_ue` vehicles: each vehicle's in-horizon arrivals
    and its first arrival at or after the horizon, so its last packet has a
    staleness deadline.

    Returns the ticks flat, vehicle after vehicle, and each vehicle's count.
    Periodic traffic has a fixed period and a random phase per vehicle; the
    phases are one vector draw, which gives the values and leaves the
    generator where one scalar draw per vehicle would.  Aperiodic gaps are
    interval/2 plus an exponential of the same mean, so the expected gap
    equals the interval and no gap is shorter than half of it; a vehicle's
    gaps are drawn until it passes the horizon, vehicle after vehicle.
    """
    horizon = ms_to_ticks(horizon_ms)
    if kind == "periodic":
        period = ms_to_ticks(interval_ms)
        phases = rng.integers(0, period, size=n_ue)
        # q + 1 arrivals fall inside the horizon when the phase is below r,
        # q otherwise, and one more ends each list
        q, r = divmod(horizon, period)
        counts = (phases < r) + (q + 1)
        # flat entry i, the k-th of its vehicle, is phase + period * k, with
        # k = i less the vehicle's first entry
        first = np.cumsum(counts) - counts
        ticks = np.repeat(phases - period * first, counts)
        ticks += period * np.arange(len(ticks))
        return ticks, counts
    times = []
    counts = []
    half = interval_ms / 2.0
    for _ in range(n_ue):
        start = len(times)
        t = float(rng.uniform(0.0, interval_ms))
        while True:
            tick = ms_to_ticks(t)
            times.append(tick)
            if tick >= horizon:
                break
            t += half + float(rng.exponential(half))
        counts.append(len(times) - start)
    return np.array(times, dtype=np.int64), np.array(counts, dtype=np.int64)
