"""Evaluation world: vehicles on a highway cell and packet generation.

The gNB sits at the midpoint of a road segment of twice the cell radius;
vehicles are placed uniformly along it and keep their position for the whole
replication.  Lane offsets are negligible against the cell radius, so the
distance to the gNB is the longitudinal distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .link import DEFAULT_CELL_RADIUS_M, LinkProfile, cqi_from_distance
from .phy import ConfigurationError, ms_to_ticks

DEFAULT_LANES = 6


@dataclass(frozen=True)
class Vehicle:
    id: int
    lane: int
    position_m: float      # signed along the road, gNB at 0
    distance_m: float
    cqi: int


@dataclass(frozen=True)
class TrafficModel:
    """Periodic (fixed period, random phase) or aperiodic traffic.

    Aperiodic gaps are interval/2 plus an exponential of the same mean, so
    the expected gap equals the interval and no gap is shorter than half of
    it.
    """

    kind: str              # "periodic" | "aperiodic"
    interval_ms: float     # period, or average gap
    packet_bytes: int = 300

    def __post_init__(self):
        if self.kind not in ("periodic", "aperiodic"):
            raise ConfigurationError(f"unknown traffic kind {self.kind!r}")
        if self.interval_ms <= 0:
            raise ConfigurationError("interval must be positive")

    @property
    def packet_bits(self) -> int:
        return self.packet_bytes * 8


def vehicle_count(density_veh_km_lane: float, lanes: int = DEFAULT_LANES,
                  cell_radius_m: float = DEFAULT_CELL_RADIUS_M) -> int:
    return round(density_veh_km_lane * lanes * 2 * cell_radius_m / 1000.0)


def place_vehicles(
    density_veh_km_lane: float,
    profile: LinkProfile,
    rng: np.random.Generator,
    lanes: int = DEFAULT_LANES,
    cell_radius_m: float = DEFAULT_CELL_RADIUS_M,
) -> list[Vehicle]:
    n = vehicle_count(density_veh_km_lane, lanes, cell_radius_m)
    positions = rng.uniform(-cell_radius_m, cell_radius_m, n)
    lanes_drawn = rng.integers(1, lanes + 1, n)
    out = []
    for i in range(n):
        distance = abs(float(positions[i]))
        out.append(
            Vehicle(i, int(lanes_drawn[i]), float(positions[i]), distance,
                    cqi_from_distance(distance, profile))
        )
    return out


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


def generate_arrivals(
    model: TrafficModel,
    horizon_ms: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Arrival ticks for one vehicle: every in-horizon arrival plus one past
    the horizon so the last packet has a staleness deadline."""
    if horizon_ms <= 0:
        raise ConfigurationError("horizon must be positive")
    horizon = ms_to_ticks(horizon_ms)
    if model.kind == "periodic":
        period = ms_to_ticks(model.interval_ms)
        phase = int(rng.integers(0, period))
        n = (horizon - phase) // period + 2
        return phase + period * np.arange(n, dtype=np.int64)
    times = []
    t = float(rng.uniform(0.0, model.interval_ms))
    half = model.interval_ms / 2.0
    while True:
        tick = ms_to_ticks(t)
        times.append(tick)
        if tick >= horizon:
            break
        t += half + float(rng.exponential(half))
    return np.array(times, dtype=np.int64)


def dump_scenario(vehicles: list[Vehicle], arrivals: list[np.ndarray]) -> dict:
    """JSON-ready snapshot of a generated world, replayable in regressions."""
    return {
        "vehicles": [
            {"id": v.id, "lane": v.lane, "position_m": v.position_m,
             "distance_m": v.distance_m, "cqi": v.cqi}
            for v in vehicles
        ],
        "arrival_ticks": [a.tolist() for a in arrivals],
    }


def load_scenario(doc: dict) -> tuple[list[Vehicle], list[np.ndarray]]:
    vehicles = [Vehicle(**v) for v in doc["vehicles"]]
    arrivals = [np.array(a, dtype=np.int64) for a in doc["arrival_ticks"]]
    return vehicles, arrivals

