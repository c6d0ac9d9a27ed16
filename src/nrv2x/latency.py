"""Per-packet radio latency composition.

A one-way hop is a serial chain: sender processing, frame alignment to the
next admissible start, waiting for free resources, the transmission itself,
and receiver processing.  Dynamic scheduling prepends the signalling chain
(scheduling request on the PUCCH for uplink, DCI on the PDCCH for both), and
the retransmission schemes append either a fixed repetition tail or
NACK-triggered cycles rescheduled dynamically on live state.

Control-channel hops charge the decode-side half processing time on their
transmit side and the prepare-side half on their receive side.  This module
holds the chain segments; the engine composes them event by event, so that
every touch of the live grids and DCI queue happens in global time order.
A signalling segment returns its completion tick; `data_chain` returns a
plain tuple of the placement, the alignment and resource wait, and the
completion tick, so an attempt builds no record object.

The state splits by plane.  `RadioContext` is the control plane both
directions share: the DCI queue on the PDCCH, the scheduling-request
cadence on the PUCCH, the processing halves and the random stream.  The
data plane is one `SlotGrid` per direction, which the caller passes to
`data_chain`.  Each grid is built for the configuration's one burst
length, so a transport block's airtime is the grid's `burst_ticks`.

Every run-time random draw (the scheduling-request wait here, the error
of each attempt in the engine) is a uniform read from `RadioContext.uniform`,
a stream over the replication's generator.  It draws the generator in
blocks of `UNIFORM_BLOCK` doubles, which give the same values in the same
order as one ``random()`` call per draw, and it draws nothing before its
first read.  That read comes after the world (vehicle positions, then the
arrival stream) is drawn, so the world keeps its draws and a replication
replays exactly from its seed.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from . import control as ctl
from .grid import Placement, SlotGrid
from .phy import ControlConfig, NumerologyProfile, ProcessingTimes

# burst length in symbols by slot type; None: the whole data region
SLOT_SYMBOLS = {"full": None, "mini7": 7, "mini4": 4}
REPETITION_COUNTS = (2, 4, 8)
NO_SCAN_LIMIT = 100_000   # slots; more than any horizon holds
# uniforms drawn from the generator at a time: a scalar `random()` costs
# about twenty times a read from a list of pre-drawn values
UNIFORM_BLOCK = 256


class RadioContext:
    """The control plane one replication's latency chains share: both
    directions' signalling state and timing, for `n_ue` vehicles."""

    def __init__(
        self,
        num: NumerologyProfile,
        proc: ProcessingTimes,
        control: ControlConfig,
        n_ue: int,
        rng: np.random.Generator,
    ):
        self.dci_queue = ctl.DciQueue(control, num.slot_ticks)
        self.sr_config = ctl.SrConfig.for_cell(control, n_ue)
        # () -> the generator's next uniform on [0, 1), drawn lazily in blocks
        self.uniform = chain.from_iterable(
            iter(lambda: rng.random(UNIFORM_BLOCK).tolist(), None)).__next__
        self.prepare_half = proc.prepare_half
        self.decode_half = proc.decode_half
        self.slot_ticks = num.slot_ticks
        self.symbol_ticks = num.symbol_ticks
        self.tt_pucch = ctl.SR_RB_SYMBOLS * num.symbol_ticks
        self.tt_pdcch = control.n_sy_pdcch * num.symbol_ticks
        self._pucch_offset = (num.symbols_per_slot - control.n_sy_pucch) * num.symbol_ticks

    # -- control-channel occasions ---------------------------------------------

    def pucch_occasion(self, ready_tick: int) -> int:
        """Start of the first PUCCH region at or after ready_tick."""
        slot = max(0, -(-(ready_tick - self._pucch_offset) // self.slot_ticks))
        return slot * self.slot_ticks + self._pucch_offset

    def pdcch_occasion_after(self, ready_tick: int) -> int:
        """Start of the first PDCCH strictly after ready_tick (a message
        arriving during a slot's PDCCH cannot ride it)."""
        return (ready_tick // self.slot_ticks + 1) * self.slot_ticks


# -- chain segments -------------------------------------------------------------


def sr_chain(ctx: RadioContext, start_tick: int, p: float | None = None) -> int:
    """Scheduling-request hop on the PUCCH: processing, alignment to the next
    opportunity, the opportunity-cycle wait, transmit, decode.  Returns the
    tick the gNB has decoded the request."""
    occasion = ctx.pucch_occasion(start_tick + ctx.decode_half)
    if p is None:
        p = ctx.uniform()
    wait = ctl.sr_wait_slots(p, ctx.sr_config) * ctx.slot_ticks
    return occasion + wait + ctx.tt_pucch + ctx.prepare_half


def grant_chain(ctx: RadioContext, created_tick: int) -> int:
    """DCI hop on the PDCCH from the instant the message exists: alignment,
    FIFO queue, transmit, decode.  Mutates the live queue.  Returns the tick
    the receiver has decoded the DCI."""
    return ctx.dci_queue.enqueue(created_tick) + ctx.tt_pdcch + ctx.prepare_half


def nack_chain(ctx: RadioContext, direction: str, start_tick: int) -> int:
    """Negative-acknowledgement hop; returns its completion tick.

    Uplink data is NACKed on the PUCCH, downlink data on the PDCCH.  The hop
    has no queueing or opportunity wait, only processing, alignment and
    transmit time.
    """
    ready = start_tick + ctx.decode_half
    if direction == "UL":
        occasion = ctx.pucch_occasion(ready)
        tt = ctx.tt_pucch
    else:
        occasion = ctx.pdcch_occasion_after(ready)
        tt = ctx.tt_pdcch
    return occasion + tt + ctx.prepare_half


def data_chain(
    ctx: RadioContext,
    grid: SlotGrid,
    ready_tick: int,
    n_rb: int,
    repeats: int = 1,
    deadline_tick: int | None = None,
    scan_limit_slots: int = NO_SCAN_LIMIT,
) -> tuple[Placement | None, int, int, int]:
    """Data hop on `grid` from the instant the transport block is prepared:
    alignment, first-fit allocation, transmission, decode.  Returns
    (placement, alignment, resource wait, tick the receiver has decoded the
    block); the placement is None, and the last two 0, when nothing fits
    before the deadline."""
    placement, boundary = grid.allocate(n_rb, ready_tick, repeats, deadline_tick, scan_limit_slots)
    if placement is None:
        return None, boundary - ready_tick, 0, 0
    return (placement, boundary - ready_tick, placement.start_tick - boundary,
            placement.tx_end_tick + ctx.decode_half)
