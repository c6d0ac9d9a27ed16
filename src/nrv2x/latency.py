"""Per-packet radio latency composition.

A one-way hop is a serial chain: sender processing, frame alignment to the
next admissible start, waiting for free resources, the transmission itself,
and receiver processing.  Dynamic scheduling prepends the signalling chain
(scheduling request on the PUCCH for uplink, DCI on the PDCCH for both), and
the retransmission schemes append either a fixed repetition tail or
NACK-triggered cycles rescheduled dynamically on live state.

Control-channel hops charge the decode-side half processing time on their
transmit side and the prepare-side half on their receive side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import control as ctl
from .grid import Placement, SlotGrid
from .link import TARGET_BLER
from .phy import (
    ConfigurationError,
    ControlConfig,
    NumerologyProfile,
    ProcessingTimes,
    ticks_to_ms,
)

SLOT_SYMBOLS = {"full": None, "mini7": 7, "mini4": 4}
REPETITION_COUNTS = (2, 4, 8)


@dataclass(frozen=True)
class SchemeConfig:
    """One full radio configuration."""

    scheduling: str = "semi_static"      # semi_static | dynamic
    retransmission: str = "none"         # none | k_repetitions | harq
    k: int = 0                           # repetition count (2, 4 or 8)
    harq_max_retx: int = 0               # max NACK-triggered retransmissions
    dl_cast: str = "broadcast"           # broadcast | unicast
    unicast_m: int = 0                   # receivers per packet when unicast
    mcs_table: str = "LEP"               # LEP | HEP
    slot_type: str = "full"              # full | mini7 | mini4
    control_variant: str = "conf1"       # conf1 | conf2 | conf3
    harq_group_size: int = 1             # intended receivers for multicast HARQ

    def __post_init__(self):
        if self.scheduling not in ("semi_static", "dynamic"):
            raise ConfigurationError(f"unknown scheduling {self.scheduling!r}")
        if self.retransmission not in ("none", "k_repetitions", "harq"):
            raise ConfigurationError(f"unknown retransmission {self.retransmission!r}")
        if self.retransmission == "k_repetitions" and self.k not in REPETITION_COUNTS:
            raise ConfigurationError(f"repetition count must be one of {REPETITION_COUNTS}")
        if self.retransmission == "harq" and self.harq_max_retx < 1:
            raise ConfigurationError("harq needs at least one retransmission")
        if self.dl_cast not in ("broadcast", "unicast"):
            raise ConfigurationError(f"unknown cast mode {self.dl_cast!r}")
        if self.dl_cast == "unicast" and self.unicast_m < 1:
            raise ConfigurationError("unicast needs at least one receiver")
        if self.mcs_table not in ("LEP", "HEP"):
            raise ConfigurationError(f"unknown MCS table {self.mcs_table!r}")
        if self.slot_type not in SLOT_SYMBOLS:
            raise ConfigurationError(f"unknown slot type {self.slot_type!r}")
        if self.harq_group_size < 1:
            raise ConfigurationError("harq group size must be positive")

    @property
    def repeats(self) -> int:
        return self.k if self.retransmission == "k_repetitions" else 1

    @property
    def bler(self) -> float:
        return TARGET_BLER[self.mcs_table]


@dataclass(slots=True)
class LatencyBreakdown:
    """Additive components of one leg, in ticks; ms views for reporting."""

    direction: str
    sched: int = 0        # signalling before the data grant is usable
    tx_proc: int = 0      # sender processing (packet preparation)
    align: int = 0        # wait to the next admissible start boundary
    wait: int = 0         # wait for free resources past that boundary
    airtime: int = 0      # duration of the transmitted symbols
    rx_proc: int = 0      # receiver processing (decode)
    retx: int = 0         # everything added by repetitions/retransmissions
    attempts: int = 1
    sr_wait: int = 0      # diagnostic: SR-opportunity share of sched
    queue_wait: int = 0   # diagnostic: DCI-queue share of sched

    @property
    def total_ticks(self) -> int:
        return (self.sched + self.tx_proc + self.align + self.wait
                + self.airtime + self.rx_proc + self.retx)

    @property
    def total_ms(self) -> float:
        return ticks_to_ms(self.total_ticks)

    def as_ms_dict(self) -> dict:
        return {
            "direction": self.direction,
            "sched_ms": ticks_to_ms(self.sched),
            "tx_proc_ms": ticks_to_ms(self.tx_proc),
            "align_ms": ticks_to_ms(self.align),
            "wait_ms": ticks_to_ms(self.wait),
            "airtime_ms": ticks_to_ms(self.airtime),
            "rx_proc_ms": ticks_to_ms(self.rx_proc),
            "retx_ms": ticks_to_ms(self.retx),
            "attempts": self.attempts,
            "total_ms": self.total_ms,
        }


class RadioContext:
    """Live state one replication's latency chains run against."""

    def __init__(
        self,
        num: NumerologyProfile,
        proc: ProcessingTimes,
        control: ControlConfig,
        scheme: SchemeConfig,
        ul_grid: SlotGrid,
        dl_grid: SlotGrid,
        dci_queue: ctl.DciQueue,
        sr_config: ctl.SrConfig,
        rng: np.random.Generator,
    ):
        self.num = num
        self.proc = proc
        self.control = control
        self.scheme = scheme
        self.grids = {"UL": ul_grid, "DL": dl_grid}
        self.dci_queue = dci_queue
        self.sr_config = sr_config
        self.rng = rng
        self.prepare_half = proc.prepare_half
        self.decode_half = proc.decode_half
        self.slot_ticks = num.slot_ticks
        self.symbol_ticks = num.symbol_ticks
        self.tt_pucch = ctl.SR_RB_SYMBOLS * num.symbol_ticks
        self.tt_pdcch = control.n_sy_pdcch * num.symbol_ticks
        self._pucch_offset = (num.symbols_per_slot - control.n_sy_pucch) * num.symbol_ticks
        self.full_slot = scheme.slot_type == "full"
        fixed = SLOT_SYMBOLS[scheme.slot_type]
        # data symbols per transport block, by direction
        self.n_sym = {d: g.data_symbols() if fixed is None else fixed
                      for d, g in self.grids.items()}

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


@dataclass(slots=True)
class SrTiming:
    ready: int          # after PUCCH preparation
    align: int
    sr_wait: int
    tx_start: int
    done: int           # gNB has decoded the request


def sr_chain(ctx: RadioContext, start_tick: int, p: float | None = None) -> SrTiming:
    """Scheduling-request hop on the PUCCH: processing, alignment to the next
    opportunity, the opportunity-cycle wait, transmit, decode."""
    ready = start_tick + ctx.decode_half
    occasion = ctx.pucch_occasion(ready)
    if p is None:
        p = float(ctx.rng.random())
    wait = ctl.sr_wait(p, ctx.sr_config, ctx.slot_ticks)
    tx_start = occasion + wait
    done = tx_start + ctx.tt_pucch + ctx.prepare_half
    return SrTiming(ready, occasion - ready, wait, tx_start, done)


@dataclass(slots=True)
class GrantTiming:
    created: int        # instant the DCI joins the queue
    align: int
    queue: int
    done: int           # receiver has decoded the DCI


def grant_chain(ctx: RadioContext, created_tick: int) -> GrantTiming:
    """DCI hop on the PDCCH from the instant the message exists: alignment,
    FIFO queue, transmit, decode.  Mutates the live queue."""
    t_fa, t_q, drain = ctl.pdcch_queue_delay(created_tick, ctx.dci_queue)
    done = drain + ctx.tt_pdcch + ctx.prepare_half
    return GrantTiming(created_tick, t_fa, t_q, done)


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


@dataclass(slots=True)
class DataTiming:
    ready: int
    align: int
    wait: int
    airtime: int
    placement: Placement | None
    tx_end: int = 0
    delivered: int = 0


def data_chain(
    ctx: RadioContext,
    direction: str,
    ready_tick: int,
    n_rb: int,
    repeats: int = 1,
    deadline_tick: int | None = None,
    scan_limit_slots: int = 100_000,
) -> DataTiming:
    """Data hop from the instant the transport block is prepared: alignment,
    first-fit allocation, transmission, decode.  Placement is None when
    nothing fits before the deadline."""
    n_sym = ctx.n_sym[direction]
    placement, boundary = ctx.grids[direction].allocate(
        n_rb, n_sym, ready_tick, ctx.full_slot, repeats, deadline_tick, scan_limit_slots,
    )
    airtime = n_sym * ctx.symbol_ticks
    if placement is None:
        return DataTiming(ready_tick, boundary - ready_tick, 0, airtime, None)
    end = placement.tx_end_tick
    return DataTiming(ready_tick, boundary - ready_tick, placement.start_tick - boundary,
                      airtime, placement, end, end + ctx.decode_half)


def sched_latency_dl(ctx: RadioContext, packet_ready_tick: int) -> tuple[int, GrantTiming]:
    """Downlink grant-signalling latency: assignment DCI processing,
    alignment, queueing, transmission, decode.  Returns (ticks, parts)."""
    grant = grant_chain(ctx, packet_ready_tick + ctx.decode_half)
    return grant.done - packet_ready_tick, grant


def sched_latency_ul(
    ctx: RadioContext, packet_ready_tick: int, p: float | None = None
) -> tuple[int, SrTiming, GrantTiming]:
    """Uplink grant-signalling latency: scheduling request then grant DCI."""
    sr = sr_chain(ctx, packet_ready_tick, p=p)
    grant = grant_chain(ctx, sr.done + ctx.decode_half)
    return grant.done - packet_ready_tick, sr, grant


# -- spec-level operations --------------------------------------------------------


def latency_semistatic(
    ctx: RadioContext, direction: str, gen_tick: int, n_rb: int,
    deadline_tick: int | None = None,
) -> tuple[LatencyBreakdown, DataTiming]:
    """Single transmission under pre-assigned (grant-free) scheduling: the
    scheduling term is zero and the hop is the plain data chain."""
    timing = data_chain(ctx, direction, gen_tick + ctx.prepare_half, n_rb,
                        repeats=ctx.scheme.repeats, deadline_tick=deadline_tick)
    bd = LatencyBreakdown(
        direction,
        sched=0,
        tx_proc=ctx.prepare_half,
        align=timing.align,
        wait=timing.wait,
        airtime=timing.airtime,
        rx_proc=ctx.decode_half if timing.placement else 0,
    )
    if timing.placement and ctx.scheme.retransmission == "k_repetitions":
        bd.retx = (ctx.scheme.repeats - 1) * ctx.slot_ticks
        bd.attempts = ctx.scheme.repeats
    return bd, timing


def latency_dynamic(
    ctx: RadioContext, direction: str, gen_tick: int, n_rb: int,
    deadline_tick: int | None = None,
) -> tuple[LatencyBreakdown, DataTiming]:
    """Single transmission under per-packet grants.

    Uplink: scheduling request then grant DCI then the data chain.  Downlink:
    assignment DCI then the data chain.  Composed synchronously, so callers
    that interleave packets must drive the segments event by event instead.
    """
    if direction == "UL":
        sched, sr, grant = sched_latency_ul(ctx, gen_tick)
        sr_wait = sr.sr_wait
    else:
        sched, grant = sched_latency_dl(ctx, gen_tick)
        sr_wait = 0
    timing = data_chain(ctx, direction, grant.done + ctx.prepare_half, n_rb,
                        repeats=ctx.scheme.repeats, deadline_tick=deadline_tick)
    bd = LatencyBreakdown(
        direction,
        sched=sched,
        tx_proc=ctx.prepare_half,
        align=timing.align,
        wait=timing.wait,
        airtime=timing.airtime,
        rx_proc=ctx.decode_half if timing.placement else 0,
        sr_wait=sr_wait,
        queue_wait=grant.queue,
    )
    if timing.placement and ctx.scheme.retransmission == "k_repetitions":
        bd.retx = (ctx.scheme.repeats - 1) * ctx.slot_ticks
        bd.attempts = ctx.scheme.repeats
    return bd, timing


def apply_k_repetitions(base: LatencyBreakdown, k: int, slot_ticks: int) -> LatencyBreakdown:
    """Blind repetition tail: exactly (k-1) slots on top of the base hop."""
    if k not in REPETITION_COUNTS:
        raise ConfigurationError(f"repetition count must be one of {REPETITION_COUNTS}")
    base.retx += (k - 1) * slot_ticks
    base.attempts = k
    return base


def apply_harq(
    ctx: RadioContext,
    base: LatencyBreakdown,
    timing: DataTiming,
    direction: str,
    n_rb: int,
    bler: float | None = None,
    max_retx: int | None = None,
    group_size: int = 1,
    failure_plan: list[bool] | None = None,
) -> tuple[LatencyBreakdown, bool, int]:
    """NACK-triggered retransmissions on live state.

    Each attempt fails independently per intended receiver with the table's
    error rate; any failing receiver triggers one retransmission serving all.
    Returns (breakdown, delivered, last_delivery_tick).  failure_plan forces
    outcomes for deterministic tests (one entry per attempt, True = fail).
    """
    bler = ctx.scheme.bler if bler is None else bler
    max_retx = ctx.scheme.harq_max_retx if max_retx is None else max_retx
    pending = group_size
    attempt = 0

    def attempt_fails() -> bool:
        nonlocal pending
        if failure_plan is not None:
            failed = failure_plan[attempt] if attempt < len(failure_plan) else False
            pending = group_size if failed else 0
            return failed
        still = sum(1 for _ in range(pending) if ctx.rng.random() < bler)
        pending = still
        return still > 0

    delivered_tick = timing.delivered
    if not attempt_fails():
        return base, True, delivered_tick
    while attempt < max_retx:
        attempt += 1
        cycle_start = delivered_tick  # failure known once decode completes
        nack_done = nack_chain(ctx, direction, cycle_start)
        if direction == "UL":
            sr = sr_chain(ctx, nack_done)
            grant = grant_chain(ctx, sr.done + ctx.decode_half)
        else:
            grant = grant_chain(ctx, nack_done + ctx.decode_half)
        retx_timing = data_chain(ctx, direction, grant.done + ctx.prepare_half, n_rb)
        if retx_timing.placement is None:
            base.attempts = attempt + 1
            return base, False, delivered_tick
        delivered_tick = retx_timing.delivered
        base.retx += delivered_tick - cycle_start
        base.attempts = attempt + 1
        if not attempt_fails():
            return base, True, delivered_tick
    return base, False, delivered_tick


def unicast_dl_latency(per_receiver_ticks: list[int], m: int) -> int:
    """Fan-out completion: the slowest of the m receiver hops."""
    if len(per_receiver_ticks) != m or m < 1:
        raise ConfigurationError("need exactly one latency per receiver")
    return max(per_receiver_ticks)


def reliability_bound(bler: float, scheme: SchemeConfig) -> float:
    """Upper bound on delivery probability from the per-attempt error rate."""
    if scheme.retransmission == "k_repetitions":
        return 1.0 - bler ** scheme.k
    if scheme.retransmission == "harq":
        return 1.0 - bler ** (scheme.harq_max_retx + 1)
    return 1.0 - bler
