"""Evaluation world: vehicles on a highway cell and packet generation.

The gNB sits at the midpoint of a road segment of twice the cell radius
(`link.CELL_RADIUS_M`), `LANES` lanes wide; vehicles are placed uniformly
along it and keep their position for the whole replication.  A world is
the vehicles' positions, then their arrival streams.  Lane offsets are
negligible against the cell radius, so no lane is drawn: the distance to
the gNB is the longitudinal distance, and its CQI is read off
`link.linear_cqi_map`.  The radius and the lane count are fixed: each
would only scale the vehicle count, as a higher density does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .link import CELL_RADIUS_M, cqi_from_distance, linear_cqi_map
from .phy import ConfigurationError, ms_to_ticks

LANES = 6


@dataclass(frozen=True)
class Vehicle:
    id: int
    position_m: float      # signed along the road, gNB at 0
    cqi: int


def vehicle_count(density_veh_km_lane: float) -> int:
    return round(density_veh_km_lane * LANES * 2 * CELL_RADIUS_M / 1000.0)


def place_vehicles(density_veh_km_lane: float, rng: np.random.Generator) -> list[Vehicle]:
    positions = rng.uniform(-CELL_RADIUS_M, CELL_RADIUS_M, vehicle_count(density_veh_km_lane))
    cqi_map = linear_cqi_map()
    return [Vehicle(i, x, cqi_from_distance(abs(x), cqi_map))
            for i, x in enumerate(positions.tolist())]


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


def generate_arrivals(kind: str, interval_ms: float, horizon_ms: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Arrival ticks for one vehicle: every in-horizon arrival plus one past
    the horizon so the last packet has a staleness deadline.

    Periodic traffic has a fixed period and a random phase.  Aperiodic gaps
    are interval/2 plus an exponential of the same mean, so the expected gap
    equals the interval and no gap is shorter than half of it.
    """
    horizon = ms_to_ticks(horizon_ms)
    if kind == "periodic":
        period = ms_to_ticks(interval_ms)
        phase = int(rng.integers(0, period))
        n = (horizon - phase) // period + 2
        return phase + period * np.arange(n, dtype=np.int64)
    times = []
    t = float(rng.uniform(0.0, interval_ms))
    half = interval_ms / 2.0
    while True:
        tick = ms_to_ticks(t)
        times.append(tick)
        if tick >= horizon:
            break
        t += half + float(rng.exponential(half))
    return np.array(times, dtype=np.int64)
