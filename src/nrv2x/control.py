"""The control plane: PDCCH and PUCCH capacities, occasions and transmit
times, scheduling-request (SR) waits, DCI queuing, and the random stream.

An SR occupies 1 RB x 1 symbol (format 0, six UEs per RB), so a PUCCH
reservation of R RBs x S symbols serves 6*R*S UEs per slot.  A DCI fits
6 RBs x 1 symbol, so a PDCCH reservation of R x S carries floor(R*S/6) DCIs
per slot.  DCIs drain in FIFO order; a message arriving during a slot's
PDCCH waits for the next one.  The PDCCH leads every slot and the PUCCH
ends it, outside the symbols `phy.data_region` leaves to data.  conf3 has
conf1's geometry and unbounded capacity: `dci_per_slot` and `sr_per_slot`
are infinite, and they alone read ``ControlConfig.ideal``.  So a conf3 DCI
never waits past its first eligible slot, and every UE has an SR
opportunity in every slot.

`RadioContext` is this plane for one replication, shared by both
directions.  Every run-time random draw (the SR wait, the error of each
attempt in the engine) is a uniform read from `RadioContext.uniform`, a
stream over the replication's generator.  It draws the generator in blocks
of `UNIFORM_BLOCK` doubles, which give the same values in the same order as
one ``random()`` call per draw, and it draws nothing before its first read.
That read comes after the world (vehicle positions, then the arrival
stream) is drawn, so the world keeps its draws and a replication replays
exactly from its seed.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .phy import ConfigurationError, ControlConfig, NumerologyProfile, ProcessingTimes, data_region

SR_RB_SYMBOLS = 1            # scheduling request footprint: 1 RB x 1 symbol
SR_UE_MULTIPLEX = 6          # UEs multiplexed per SR resource
DCI_RB_SYMBOLS = 6           # DCI footprint: 6 RBs x 1 symbol
# uniforms drawn from the generator at a time: a scalar `random()` costs
# about twenty times a read from a list of pre-drawn values
UNIFORM_BLOCK = 256


def dci_per_slot(control: ControlConfig) -> float:
    """DCIs the PDCCH carries per slot: floor(R*S/6), infinite under conf3."""
    if control.ideal:
        return math.inf
    return (control.n_rb_pdcch * control.n_sy_pdcch) // DCI_RB_SYMBOLS


def sr_per_slot(control: ControlConfig) -> float:
    """Scheduling requests the PUCCH carries per slot: 6*R*S, infinite
    under conf3."""
    if control.ideal:
        return math.inf
    return control.n_rb_pucch * control.n_sy_pucch * SR_UE_MULTIPLEX


def sr_cycle_slots(control: ControlConfig, n_ue: int) -> int:
    """Slots between two SR opportunities of one UE among `n_ue`."""
    r_sr = sr_per_slot(control)
    if r_sr < 1:
        raise ConfigurationError("PUCCH reservation cannot carry any SR")
    return max(1, math.ceil(n_ue / r_sr))


def sr_wait_slots(p: float, n_slots: int) -> int:
    """Whole slots a UE waits for its SR opportunity on an `n_slots` cycle,
    p uniform in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError("p must lie in [0, 1]")
    if p == 0.0:
        return 0
    return math.ceil(p * n_slots) - 1


class DciQueue:
    """FIFO of DCI messages drained once per slot, `dci_per_slot` at a time.

    Enqueue is O(1): because callers enqueue in chronological order, the
    drain slot of a new message is either its first eligible slot or the
    tail's slot (if capacity remains) or the slot after the tail.
    """

    def __init__(self, control: ControlConfig, slot_ticks: int):
        self.capacity = dci_per_slot(control)
        if self.capacity < 1:
            raise ConfigurationError("PDCCH reservation cannot carry any DCI")
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
        if self._tail_slot < eligible:
            self._tail_slot, self._tail_count = eligible, 1
        elif self._tail_count < self.capacity:
            self._tail_count += 1
        else:
            self._tail_slot += 1
            self._tail_count = 1
        return self._tail_slot * self.slot_ticks


class RadioContext:
    """The control plane one replication's latency chains share: both
    directions' signalling state and timing, for `n_ue` vehicles."""

    def __init__(self, num: NumerologyProfile, proc: ProcessingTimes, control: ControlConfig,
                 n_ue: int, rng: np.random.Generator):
        self.dci_queue = DciQueue(control, num.slot_ticks)
        self.sr_cycle = sr_cycle_slots(control, n_ue)
        # () -> the generator's next uniform on [0, 1), drawn lazily in blocks
        self.uniform = chain.from_iterable(
            iter(lambda: rng.random(UNIFORM_BLOCK).tolist(), None)).__next__
        self.prepare_half = proc.prepare_half
        self.decode_half = proc.decode_half
        self.slot_ticks = num.slot_ticks
        self.tt_pucch = SR_RB_SYMBOLS * num.symbol_ticks
        self.tt_pdcch = control.n_sy_pdcch * num.symbol_ticks
        # the PUCCH starts where the uplink data region ends
        self._pucch_offset = data_region(num, "UL", control).stop * num.symbol_ticks

    def pucch_occasion(self, ready_tick: int) -> int:
        """Start of the first PUCCH region at or after ready_tick."""
        slot = max(0, -(-(ready_tick - self._pucch_offset) // self.slot_ticks))
        return slot * self.slot_ticks + self._pucch_offset

    def pdcch_occasion_after(self, ready_tick: int) -> int:
        """Start of the first PDCCH strictly after ready_tick (a message
        arriving during a slot's PDCCH cannot ride it)."""
        return (ready_tick // self.slot_ticks + 1) * self.slot_ticks
