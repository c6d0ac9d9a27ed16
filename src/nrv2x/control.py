"""Dynamic-scheduling signalling: scheduling-request waits on the PUCCH and
DCI queuing on the PDCCH.

A scheduling request occupies 1 RB x 1 symbol (format 0, six UEs per RB), so
a PUCCH reservation of R RBs x S symbols serves 6*R*S UEs per slot.  A DCI
fits 6 RBs x 1 symbol, so a PDCCH reservation of R x S carries floor(R*S/6)
DCIs per slot.  DCIs drain in FIFO order; a message arriving during a slot's
PDCCH waits for the next one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .phy import ConfigurationError, ControlConfig

SR_RB_SYMBOLS = 1            # scheduling request footprint: 1 RB x 1 symbol
SR_UE_MULTIPLEX = 6          # UEs multiplexed per SR resource
DCI_RB_SYMBOLS = 6           # DCI footprint: 6 RBs x 1 symbol


@dataclass(frozen=True)
class SrConfig:
    """Scheduling-request opportunity cadence for one cell population."""

    r_sr: int          # SR messages per slot
    n_slots_sr: int    # slots between two opportunities of the same UE
    ideal: bool = False

    @classmethod
    def for_cell(cls, control: ControlConfig, n_ue: int) -> "SrConfig":
        r_sr = control.n_rb_pucch * control.n_sy_pucch * SR_UE_MULTIPLEX
        if r_sr < 1:
            raise ConfigurationError("PUCCH reservation cannot carry any SR")
        return cls(r_sr, max(1, math.ceil(n_ue / r_sr)), control.ideal)


def sr_wait_slots(p: float, sr: SrConfig) -> int:
    """Whole slots a UE waits for its SR opportunity, p uniform in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError("p must lie in [0, 1]")
    if sr.ideal or p == 0.0:
        return 0
    return math.ceil(p * sr.n_slots_sr) - 1


class DciQueue:
    """FIFO of DCI messages drained once per slot with bounded capacity.

    Enqueue is O(1): because callers enqueue in chronological order, the
    drain slot of a new message is either its first eligible slot or the
    tail's slot (if capacity remains) or the slot after the tail.
    """

    def __init__(self, control: ControlConfig, slot_ticks: int):
        cap = (control.n_rb_pdcch * control.n_sy_pdcch) // DCI_RB_SYMBOLS
        if cap < 1 and not control.ideal:
            raise ConfigurationError("PDCCH reservation cannot carry any DCI")
        self.capacity = cap
        self.ideal = control.ideal
        self.slot_ticks = slot_ticks
        self._tail_slot = -1
        self._tail_count = 0
        self._last_created = -1

    def first_eligible_slot(self, created_tick: int) -> int:
        """A DCI cannot ride the PDCCH of the slot it arrives in."""
        return created_tick // self.slot_ticks + 1

    def enqueue(self, created_tick: int) -> int:
        """Queue one DCI; returns the start tick of its drain slot's PDCCH."""
        if created_tick < self._last_created:
            raise ConfigurationError("DCI messages must be enqueued in time order")
        self._last_created = created_tick
        eligible = self.first_eligible_slot(created_tick)
        if self.ideal:
            return eligible * self.slot_ticks
        if self._tail_slot < eligible:
            self._tail_slot, self._tail_count = eligible, 1
        elif self._tail_count < self.capacity:
            self._tail_count += 1
        else:
            self._tail_slot += 1
            self._tail_count = 1
        return self._tail_slot * self.slot_ticks

