"""Link adaptation: distance -> CQI, CQI -> MCS, and transport block sizing.

Two table families are supported, named after their role in the evaluated
services: LEP (low error protection, MCS/CQI table 2, 0.1 target BLER) and
HEP (high error protection, MCS/CQI table 3, 1e-5 target BLER).

A distance -> CQI map is a plain tuple of (upper distance bound in metres,
cqi) pairs; the bounds are strictly increasing and the last one is the cell
radius.  The cell, its distance -> CQI map and the RB overhead are
constants: together they are calibrated against the RB-footprint anchors
of the evaluated services, and `footprints` is the one per-CQI RB table
that both the engine and the calibration check read.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .phy import ConfigurationError, load_rows

#: radius of the cell in metres: the gNB sits at the middle of a road twice as long
CELL_RADIUS_M = 866.0

#: resource elements per RB unusable for data (DMRS and other reference
#: signals); calibrated with the edge CQI against the RB-footprint anchors.
OVERHEAD_RE_PER_RB = 12

#: CQI index the distance map assigns at the cell edge; calibrated with the
#: overhead above.
EDGE_CQI = 6

TARGET_BLER = {"LEP": 0.1, "HEP": 1e-5}


class NoTransmission(ConfigurationError):
    """CQI 0 reported: channel out of range, nothing can be scheduled."""


class AllocationInfeasible(ConfigurationError):
    """Packet cannot fit the carrier even with every resource block."""


@dataclass(frozen=True)
class McsEntry:
    index: int
    modulation_order: int
    code_rate: float
    spectral_efficiency: float


def _mcs_table(name: str) -> tuple[McsEntry, ...]:
    return tuple(
        McsEntry(int(r["index"]), int(r["modulation_order"]),
                 float(r["code_rate_x1024"]) / 1024.0, float(r["spectral_efficiency"]))
        for r in load_rows(name)
    )


def _cqi_table(name: str) -> dict[int, float]:
    return {int(r["index"]): float(r["efficiency"]) for r in load_rows(name)}


MCS_TABLES = {"LEP": _mcs_table("mcs_table2.csv"), "HEP": _mcs_table("mcs_table3.csv")}
CQI_TABLES = {"LEP": _cqi_table("cqi_table2.csv"), "HEP": _cqi_table("cqi_table3.csv")}
_TBS_TABLE = tuple(int(r["tbs_bits"]) for r in load_rows("tbs_table.csv"))


def linear_cqi_map() -> tuple[tuple[float, int], ...]:
    """Equal-width distance bins from CQI 15 at the gNB down to EDGE_CQI at
    the cell edge.

    With vehicles placed uniformly this makes the CQI uniform over the
    [EDGE_CQI, 15] index range.
    """
    best_cqi = 15
    steps = best_cqi - EDGE_CQI + 1
    width = CELL_RADIUS_M / steps
    return tuple((width * (i + 1), best_cqi - i) for i in range(steps))


def cqi_from_distance(distance_m: float, cqi_map: tuple[tuple[float, int], ...]) -> int:
    """CQI of the first map entry whose bound covers the distance.

    `scenario.place_vehicles` finds the same entry for every vehicle at
    once, by one search over the bounds.
    """
    if distance_m < 0 or distance_m > cqi_map[-1][0]:
        raise ConfigurationError(f"distance {distance_m} m outside the mapped cell")
    for bound, cqi in cqi_map:
        if distance_m <= bound:
            return cqi
    raise AssertionError("unreachable: map covers the cell")


def mcs_from_cqi(cqi: int, mcs_table: str) -> McsEntry:
    """Highest-efficiency MCS admitted by the reported CQI for this table.

    CQI 1 of table 2 sits below the table's lowest MCS efficiency; the most
    robust entry is used there.  CQI 0 means out of range.
    """
    if cqi == 0:
        raise NoTransmission("CQI 0: out of range")
    cqi_eff = CQI_TABLES[mcs_table].get(cqi)
    if cqi_eff is None:
        raise ConfigurationError(f"CQI {cqi} not defined for {mcs_table}")
    admitted = [m for m in MCS_TABLES[mcs_table] if m.spectral_efficiency <= cqi_eff]
    if not admitted:
        return MCS_TABLES[mcs_table][0]
    return max(admitted, key=lambda m: m.spectral_efficiency)


def transport_block_size(
    mcs: McsEntry,
    n_rb: int,
    n_symbols: int,
    layers: int = 2,
    overhead_re_per_rb: int = OVERHEAD_RE_PER_RB,
) -> int:
    """Payload bits carried by (MCS, RBs, symbols, layers), per TS 38.214 5.1.3.2.

    The intermediate round() is half-up, matching the procedure's convention.
    """
    if n_rb < 1 or not 1 <= n_symbols <= 14 or layers not in (1, 2):
        raise ConfigurationError("TBS arguments out of range")
    n_re = min(156, 12 * n_symbols - overhead_re_per_rb) * n_rb
    n_info = n_re * mcs.code_rate * mcs.modulation_order * layers
    if n_info <= 0:
        return 0
    if n_info <= 3824:
        n = max(3, math.floor(math.log2(n_info)) - 6)
        quantised = max(24, (1 << n) * math.floor(n_info / (1 << n)))
        # the table ends at 3824, and quantised <= n_info
        return _TBS_TABLE[bisect_left(_TBS_TABLE, quantised)]
    n = math.floor(math.log2(n_info - 24)) - 5
    quantised = max(3840, (1 << n) * math.floor((n_info - 24) / (1 << n) + 0.5))
    if mcs.code_rate <= 0.25:
        blocks = math.ceil((quantised + 24) / 3816)
    elif quantised > 8424:
        blocks = math.ceil((quantised + 24) / 8424)
    else:
        blocks = 1
    return 8 * blocks * math.ceil((quantised + 24) / (8 * blocks)) - 24


def rbs_for_packet(payload_bits: int, mcs: McsEntry, n_symbols: int,
                   max_rb: int | None = None) -> int:
    """Smallest RB count whose transport block fits the payload."""
    if payload_bits <= 0:
        raise ConfigurationError("payload must be positive")
    hi = max_rb if max_rb is not None else 4096
    if transport_block_size(mcs, hi, n_symbols) < payload_bits:
        raise AllocationInfeasible(
            f"{payload_bits} bits do not fit in {hi} RBs at MCS {mcs.index}"
        )
    # the TBS never falls as RBs grow, so the first fitting count is a bisection
    return 1 + bisect_left(range(1, hi), payload_bits,
                           key=lambda n: transport_block_size(mcs, n, n_symbols))


@functools.cache
def footprints(mcs_table: str, n_symbols: int, payload_bits: int,
               max_rb: int | None = None) -> Mapping[int, int | None]:
    """RBs a packet takes at each CQI of the map, in map order; None where
    it does not fit in `max_rb` RBs.

    The table depends only on its arguments, so it is built once per
    argument tuple and shared, read-only, by every later call.
    """
    out: dict[int, int | None] = {}
    for _, cqi in linear_cqi_map():
        try:
            out[cqi] = rbs_for_packet(payload_bits, mcs_from_cqi(cqi, mcs_table), n_symbols,
                                      max_rb)
        except AllocationInfeasible:
            out[cqi] = None
    return MappingProxyType(out)


def mean_rbs_over_cell(mcs_table: str, n_symbols: int, payload_bits: int = 2400) -> float:
    """Expected RBs per packet when vehicle distance is uniform over the cell.

    The linear map makes the CQI uniform over its index range, so the
    expectation is an exact average of the footprint table.
    """
    counts = list(footprints(mcs_table, n_symbols, payload_bits).values())
    if None in counts:
        raise AllocationInfeasible(f"{payload_bits} bits do not fit at every CQI")
    return sum(counts) / len(counts)
