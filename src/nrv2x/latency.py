"""The four hop segments the engine chains into a packet's legs: a
scheduling request on the PUCCH (`sr_chain`), a DCI through the PDCCH queue
(`grant_chain`), a negative acknowledgement on a control channel
(`nack_chain`) and a transport block on a data grid (`data_chain`).

Each segment is sender processing, alignment to the next admissible start,
any queueing or opportunity wait, the transmission, and receiver
processing.  Control-channel hops charge the decode-side half processing
time on their transmit side and the prepare-side half on their receive
side.  A signalling segment returns its completion tick; `data_chain`
returns a plain tuple of the placement, the alignment and resource wait,
and the completion tick, so an attempt builds no record object.

The control plane they read is `control.RadioContext`, the data plane a
`grid.SlotGrid`.  The engine composes the segments event by event, so that
every touch of the live grids and DCI queue happens in global time order.
They stay four separate functions, which the benchmark's tracer times by
name, until ROADMAP item 7 lets them fold into `control.py` and the engine.
"""

from __future__ import annotations

from .control import RadioContext, sr_wait_slots
from .grid import NO_SCAN_LIMIT, Placement, SlotGrid


def sr_chain(ctx: RadioContext, start_tick: int, p: float | None = None) -> int:
    """Scheduling-request hop on the PUCCH: processing, alignment to the next
    opportunity, the opportunity-cycle wait, transmit, decode.  Returns the
    tick the gNB has decoded the request."""
    occasion = ctx.pucch_occasion(start_tick + ctx.decode_half)
    if p is None:
        p = ctx.uniform()
    wait = sr_wait_slots(p, ctx.sr_cycle) * ctx.slot_ticks
    return occasion + wait + ctx.tt_pucch + ctx.prepare_half


def grant_chain(ctx: RadioContext, created_tick: int) -> int:
    """DCI hop on the PDCCH from the instant the message exists: alignment,
    FIFO queue, transmit, decode.  Mutates the live queue.  Returns the tick
    the receiver has decoded the DCI."""
    return ctx.dci_queue.enqueue(created_tick) + ctx.tt_pdcch + ctx.prepare_half


def nack_chain(ctx: RadioContext, channel: tuple, start_tick: int) -> int:
    """Negative-acknowledgement hop on `channel`, a pair of its occasion
    function (ready tick -> start tick) and its transmit ticks; returns its
    completion tick.  The hop has no queueing or opportunity wait, only
    processing, alignment and transmit time."""
    occasion, tt = channel
    return occasion(start_tick + ctx.decode_half) + tt + ctx.prepare_half


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
