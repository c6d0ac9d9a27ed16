"""Static physical-layer constants: numerology geometry, frame structure,
bandwidth-to-RB mapping, and UE processing-time tables.

All internal time arithmetic uses an integer tick of 1/672 ms.  672 is the
least common multiple of every symbol count per millisecond in the supported
set (14, 28, 48 and 56 symbols/ms) times two, so slot boundaries, symbol
boundaries and half processing times are all exact integers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources

TICKS_PER_MS = 672


def ticks_to_ms(ticks: int) -> float:
    return ticks / TICKS_PER_MS


def ms_to_ticks(ms: float) -> int:
    """Round a millisecond value to the nearest tick."""
    return round(ms * TICKS_PER_MS)


def load_rows(name: str) -> list[dict]:
    """The rows of one of the package's data tables, as column -> text."""
    path = resources.files("nrv2x.data").joinpath(name)
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


class ConfigurationError(ValueError):
    """Raised for unsupported or inconsistent radio configurations."""


@dataclass(frozen=True)
class NumerologyProfile:
    """Slot geometry for one subcarrier spacing / cyclic prefix choice."""

    mu: int
    scs_khz: int
    cp: str                 # "NCP" or "ECP"
    symbols_per_slot: int
    slot_ticks: int
    symbol_ticks: int


def numerology(scs_khz: int) -> NumerologyProfile:
    """Build the profile for an FR1 subcarrier spacing.

    The evaluated set pairs 15/30 kHz with the normal cyclic prefix and
    60 kHz with the extended one.
    """
    mu_by_scs = {15: 0, 30: 1, 60: 2}
    if scs_khz not in mu_by_scs:
        raise ConfigurationError(f"unsupported subcarrier spacing {scs_khz} kHz")
    mu = mu_by_scs[scs_khz]
    cp = "ECP" if scs_khz == 60 else "NCP"
    symbols = 14 if cp == "NCP" else 12
    slot_ticks = TICKS_PER_MS >> mu
    if slot_ticks % symbols:
        raise ConfigurationError("tick grid does not divide the symbol duration")
    return NumerologyProfile(mu, scs_khz, cp, symbols, slot_ticks, slot_ticks // symbols)


_NRB_TABLE: dict[tuple[int, int], int] = {
    (int(r["scs_khz"]), int(r["bw_mhz"])): int(r["n_rb"]) for r in load_rows("nrb_fr1.csv")
}


def total_rbs(bw_mhz: int, scs_khz: int) -> int:
    """Transmission-bandwidth RB count for (bandwidth, SCS), per TS 38.104."""
    try:
        return _NRB_TABLE[(scs_khz, bw_mhz)]
    except KeyError:
        raise ConfigurationError(
            f"no RB count defined for {bw_mhz} MHz at {scs_khz} kHz SCS"
        ) from None


_PROC_TABLE: dict[tuple[int, int], tuple[Fraction, Fraction]] = {
    (int(r["capability"]), int(r["mu"])): (Fraction(r["n1_symbols"]), Fraction(r["n2_symbols"]))
    for r in load_rows("ue_processing.csv")
}


@dataclass(frozen=True)
class ProcessingTimes:
    """Decode (PDSCH) and prepare (PUSCH) times for one numerology.

    Symbol counts are converted at the 14-symbol slot grid of the numerology
    regardless of cyclic prefix, which keeps the times non-increasing in mu.
    Halved values are what the latency model charges on each side of a hop.
    """

    ue_capability: int
    mu: int
    decode_ticks: int      # PDSCH processing procedure time
    prepare_ticks: int     # PUSCH preparation procedure time

    @property
    def decode_half(self) -> int:
        return self.decode_ticks // 2

    @property
    def prepare_half(self) -> int:
        return self.prepare_ticks // 2


def processing_times(mu: int, ue_capability: int) -> ProcessingTimes:
    if (ue_capability, mu) not in _PROC_TABLE:
        raise ConfigurationError(
            f"no processing times for capability {ue_capability}, mu {mu}"
        )
    n1, n2 = _PROC_TABLE[(ue_capability, mu)]
    ncp_symbol = Fraction(TICKS_PER_MS, 14 * (1 << mu))
    decode = n1 * ncp_symbol
    prepare = n2 * ncp_symbol
    if decode.denominator != 1 or prepare.denominator != 1 or decode % 2 or prepare % 2:
        raise ConfigurationError("processing time not representable on the tick grid")
    return ProcessingTimes(ue_capability, mu, int(decode), int(prepare))


@dataclass(frozen=True)
class ControlConfig:
    """Resources reserved per slot for the control channels.

    The leading PDCCH symbols and trailing PUCCH symbols of every slot are
    excluded from data scheduling in their direction.  The RB counts size the
    per-slot signalling capacity (DCI and scheduling-request budgets); under
    the expanded variant they may exceed the carrier width, in which case
    they act purely as a capacity abstraction.  ``ideal`` marks conf3, whose
    capacities `control.dci_per_slot` and `control.sr_per_slot` read as
    unbounded.
    """

    n_rb_pdcch: int
    n_sy_pdcch: int
    n_rb_pucch: int
    n_sy_pucch: int
    ideal: bool = False


# Baseline control reservation; RB counts follow the IMT-2020 style evaluation
# set-up (one-symbol control regions, a four-DCI PDCCH budget and a single SR
# RB).  conf2 scales the PDCCH RBs by 6 and the PUCCH RBs by 8; conf3 keeps
# the geometry with unbounded signalling capacity.
_CONF1 = ControlConfig(n_rb_pdcch=24, n_sy_pdcch=1, n_rb_pucch=1, n_sy_pucch=1)


def control_config(variant: str) -> ControlConfig:
    if variant == "conf1":
        return _CONF1
    if variant == "conf2":
        return replace(_CONF1, n_rb_pdcch=_CONF1.n_rb_pdcch * 6,
                       n_rb_pucch=_CONF1.n_rb_pucch * 8)
    if variant == "conf3":
        return replace(_CONF1, ideal=True)
    raise ConfigurationError(f"unknown control variant {variant!r}")


def data_region(num: NumerologyProfile, direction: str, control: ControlConfig) -> range:
    """Symbol indices usable for data in one direction of a slot.

    Downlink data follows the PDCCH symbols; uplink data precedes the PUCCH
    symbols at the end of the slot.
    """
    if direction == "DL":
        reserved = control.n_sy_pdcch
        if reserved >= num.symbols_per_slot:
            raise ConfigurationError("PDCCH reservation leaves no data symbols")
        return range(reserved, num.symbols_per_slot)
    if direction == "UL":
        reserved = control.n_sy_pucch
        if reserved >= num.symbols_per_slot:
            raise ConfigurationError("PUCCH reservation leaves no data symbols")
        return range(0, num.symbols_per_slot - reserved)
    raise ConfigurationError(f"unknown direction {direction!r}")
