"""Seeded replications of the full uplink + downlink pipeline.

Each replication is a single-threaded event loop over one cell: packets walk
their signalling and data chains as timed events so that every touch of
shared state (the DCI queue, the two resource grids) happens in global time
order.  Replications repeat until the 95% confidence half-width of the mean
radio latency falls below the relative-error target.

Every hop of a packet is a leg, and every leg runs one state machine.  The
uplink is leg 0; the downlink hand-over adds one leg for a broadcast, whose
HARQ group is its count of pending receivers, or one leg per unicast
receiver.  Every attempt of a leg starts in ``_Replication._start``: a
semi-static first attempt is prepared at once; a retransmission after a
``_NACK``, or any attempt under dynamic scheduling, asks for a grant: a
scheduling request on the PUCCH (uplink only), then a ``_DCI`` carrying the
grant or assignment, then the attempt.  An attempt is a ``_DATA`` event:
the first-fit data chain, then an outcome from ``_attempt_ok``, which a
replication that cannot draw an error (no retransmission scheme, LEP table)
never asks.  A failed HARQ attempt raises a ``_NACK``; the last allowed
failure, or an attempt that finds no resources, closes the leg.  What
depends on direction is data in a ``_Hop``, one per direction and
replication: the direction's data grid and each vehicle's RB footprint on
it; the data chain's arguments for a first attempt and for a
retransmission, each a tuple of repeats, deadline rule (the packet's own
deadline, none, or a fixed span from the attempt) and scan limit; the
outcome and detail of a starved or failed leg; the control channel that
carries its NACK; and whether a grant request starts with a scheduling
request (uplink).  The control plane both directions share (the DCI queue,
the scheduling-request cadence, the random stream) is the replication's
``control.RadioContext``.  The uplink leg's resolution hands a delivered
packet over to the downlink: it pushes the ``_INGEST`` that creates the
downlink legs.  The packet resolves with its last downlink leg, to its
worst leg's state: dropped if any leg was dropped, else failed if any
failed, else delivered.

Two protocol details shape congestion behaviour.  First, a UE has one grant
request in flight: a packet that arrives while its vehicle's uplink leg
waits for its first grant supersedes the stale packet and takes the leg
over, so the request serves the newest packet rather than re-entering the
queue, which bounds the DCI backlog at one message per UE.
Second, the hand-over between the legs happens outside the radio budget:
the uplink packet leaves the radio domain once decoded, and its downlink
counterpart is created against the next slot boundary with the gNB-side
preparation overlapping that gap; only the per-leg radio latencies are
summed.

Events are kept in a calendar of per-tick buckets (Brown, "Calendar
queues", CACM 31(10), 1988): a dict from tick to the ``(kind, payload)``
pairs due then, in push order, and a heap of the distinct ticks that hold a
bucket.  A push appends to its tick's bucket and reaches the heap only when
it opens a new one.  The loop pops a tick and runs its whole bucket.  This
is the order of one heap over all events keyed by (tick, push order),
because every handler pushes strictly after the tick it runs at: the
processing halves are positive, and the hand-over boundary less
``prepare_half`` is at least the uplink's decode tick, which follows the
attempt that decodes it.  So no bucket gains an event while, or after, it
runs.

Arrivals never enter the calendar.  They are generated for the whole
horizon when a replication is set up, every vehicle's by one call that
returns the ticks flat, vehicle after vehicle, with a count per vehicle.
They are laid out as one stream, a compact integer array of (tick,
vehicle, deadline) rows sorted by (tick, vehicle, index), the deadline
being the vehicle's next arrival.  Its rows from the warm-up on are the
replication's counted packets, so set-up counts them once.  The loop
merges that stream with the calendar, which holds only in-flight events
and the periodic flushes: an arrival goes first when its tick is at or
before the earliest bucket's, as it would had every arrival been pushed up
front, before every other event.
"""

from __future__ import annotations

import functools
import heapq
import math
import time
import zlib
from dataclasses import dataclass, field, fields
from itertools import chain
from operator import attrgetter

import numpy as np

from . import latency as lat
from . import link as lnk
from . import phy
from . import scenario as scn
from .control import RadioContext
from .grid import NO_SCAN_LIMIT, SlotGrid

# kinds of calendar event, dispatched in the replication loop; numbered from
# 0, _FLUSH last.  Arrivals come from their own stream.
(_INGEST, _DCI, _DATA, _NACK, _FLUSH) = range(5)

_FLUSH_INTERVAL_MS = 50.0
# burst length in symbols by slot type; None: the whole data region
SLOT_SYMBOLS = {"full": None, "mini7": 7, "mini4": 4}
REPETITION_COUNTS = (2, 4, 8)
# stream rows the loop turns into Python ints at a time: the whole stream as
# ints would take several times the memory of the array
_ARRIVAL_CHUNK = 256
_NO_ARRIVAL = (math.inf, -1, -1)
# the deadline rule of a data chain whose deadline is the packet's own: its
# vehicle's next arrival (the other rules: None, no deadline; a span of ticks
# from the attempt's tick)
_PACKET_DEADLINE = -1

# packet / leg resolution states, ordered so that a packet's outcome is its
# worst leg's
_PENDING, _DELIVERED, _FAILED, _DROPPED = range(4)

DISPOSITIONS = {_DELIVERED: "delivered", _DROPPED: "dropped_at_tx",
                _FAILED: "delivery_failed"}

# a leg's latency components, in the order of the trace columns: signalling
# before the data grant is usable, sender processing, alignment to the next
# admissible start, wait for free resources past it, the transmitted
# symbols, receiver processing, and what repetitions or retransmissions add
COMPONENTS = ("sched", "tx_proc", "align", "wait", "airtime", "rx_proc", "retx")

# RunConfig fields that take one of a few values
_CHOICES = {
    "scheduling": ("semi_static", "dynamic"),
    "retransmission": ("none", "k_repetitions", "harq"),
    "dl_cast": ("broadcast", "unicast"),
    "mcs_table": tuple(lnk.TARGET_BLER),
    "slot_type": tuple(SLOT_SYMBOLS),
    "traffic": ("periodic", "aperiodic"),
}
# the values a RunConfig field annotated int or float takes, bools aside
_NUMERIC = {"int": int, "float": (int, float)}
# the most replication means the stopping rule has a Student t quantile for:
# data/student_t975.csv covers 1 .. MAX_REPLICATIONS - 1 degrees of freedom
MAX_REPLICATIONS = 1000


@dataclass(frozen=True)
class RunConfig:
    """One evaluation point: radio scheme plus scenario and stopping rule.

    The one configuration record.  Construction checks every value and
    every combination a replication depends on, so a configuration that
    constructs also runs.  A float field holds a float, whatever number it
    was given.  The cell, its CQI map and lane count, the RB overhead, the
    MIMO layers and the UE capability are constants of `link`, `scenario`
    and `phy`, not fields.
    """

    scs_khz: int = 30
    bandwidth_mhz: int = 20
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
    traffic: str = "periodic"            # periodic | aperiodic
    interval_ms: float = 100.0           # period, or average gap
    density_veh_km_lane: float = 10.0
    packet_bytes: int = 300
    horizon_ms: float = 10_000.0
    warmup_ms: float = 200.0
    seed: int = 0
    min_replications: int = 10
    max_replications: int = 64
    relative_error_target: float = 0.01

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # a bool is an int; a float such as 30.0 would give a second key
            kind = _NUMERIC.get(f.type)
            if kind and (isinstance(value, bool) or not isinstance(value, kind)):
                raise phy.ConfigurationError(
                    f"{f.name} must be {'an integer' if kind is int else 'a number'}, "
                    f"got {value!r}")
            if f.type == "float":
                object.__setattr__(self, f.name, float(value))
        if not all(map(math.isfinite, (self.interval_ms, self.density_veh_km_lane,
                                       self.horizon_ms, self.warmup_ms))):
            raise phy.ConfigurationError("times and density must be finite")
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise phy.ConfigurationError(
                    f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        num = phy.numerology(self.scs_khz)
        phy.total_rbs(self.bandwidth_mhz, self.scs_khz)
        phy.control_config(self.control_variant)
        n_ue = scn.vehicle_count(self.density_veh_km_lane)
        slot = num.slot_ticks
        for ok, message in (
            (self.retransmission != "k_repetitions" or self.k in REPETITION_COUNTS,
             f"repetition count must be one of {REPETITION_COUNTS}"),
            (self.retransmission != "harq" or self.harq_max_retx >= 1,
             "harq needs at least one retransmission"),
            (self.harq_group_size >= 1, "harq group size must be positive"),
            (self.packet_bytes >= 1, "packet size must be positive"),
            (self.density_veh_km_lane >= 0, "density must be non-negative"),
            (n_ue >= 1, f"density {self.density_veh_km_lane:g} veh/km/lane places "
                        "no vehicle in the cell"),
            (self.dl_cast != "unicast" or 1 <= self.unicast_m < n_ue,
             f"unicast needs between 1 and {n_ue - 1} receivers of the {n_ue} "
             f"vehicles, got {self.unicast_m}"),
            (phy.ms_to_ticks(self.interval_ms) >= 1, "interval must be positive"),
            (self.warmup_ms >= 0, "warmup must be non-negative"),
            # the utilization window needs a whole slot
            (-(-phy.ms_to_ticks(self.warmup_ms) // slot)
             < phy.ms_to_ticks(self.horizon_ms) // slot,
             "warmup must end at least one slot before the horizon"),
            (self.seed >= 0, "seed must be non-negative"),
            (1 <= self.max_replications, "max_replications must be positive"),
            (self.max_replications <= MAX_REPLICATIONS,
             f"max_replications must be at most {MAX_REPLICATIONS}, the reach of "
             "the stopping rule's Student t table"),
            # not NaN either: `relative_error(...) < target` would never stop a run
            (self.relative_error_target > 0, "relative error target must be positive"),
            (self.min_replications <= self.max_replications,
             "min_replications exceeds max_replications"),
        ):
            if not ok:
                raise phy.ConfigurationError(message)

    def key(self) -> str:
        """Canonical identifier of the configuration point (seed excluded).

        A readable name of the radio scheme and load, then ``-`` and the
        CRC-32, in 8 hex digits, of the repr of the tuple of every field
        value but the seed, in field order.  Configurations that differ in
        any field but the seed get different keys, barring a checksum
        collision.
        """
        parts = [
            f"scs{self.scs_khz}", f"bw{self.bandwidth_mhz}", self.scheduling,
            self.retransmission
            + (str(self.k) if self.retransmission == "k_repetitions" else "")
            + (f"n{self.harq_max_retx}" if self.retransmission == "harq" else ""),
            self.dl_cast + (f"m{self.unicast_m}" if self.dl_cast == "unicast" else ""),
            self.mcs_table, self.slot_type, self.control_variant,
            self.traffic, f"t{self.interval_ms:g}", f"rho{self.density_veh_km_lane:g}",
        ]
        values = tuple(getattr(self, f.name) for f in fields(self) if f.name != "seed")
        return "-".join(parts) + f"-{zlib.crc32(repr(values).encode()):08x}"


@dataclass(frozen=True, slots=True)
class _Hop:
    """What a leg's direction decides; one per direction and replication."""

    direction: str
    grid: SlotGrid        # the direction's data grid
    rbs: list             # per vehicle: the RBs its packet takes, None if it cannot fit
    first: tuple          # a first attempt's (repeats, deadline rule, scan limit)
    retx: tuple           # the same for a retransmission
    starved: tuple        # (state, detail) when an attempt finds no resources, by retx
    error: str            # detail of a leg whose last attempt failed
    nack: tuple           # the NACK's channel: (occasion after a ready tick, transmit ticks)
    sr: bool              # a grant request starts with a scheduling request


class _Leg:
    """One hop of a packet: its uplink (leg 0) or one downlink copy.

    Its latency is ``done - created``; `_Replication._components` splits it
    into the model's additive parts.
    """

    __slots__ = ("pkt", "hop", "n_rb", "created", "state", "pending", "placement",
                 "attempts", "first", "align", "wait", "done")

    def __init__(self, pkt, hop, n_rb, created, pending):
        self.pkt = pkt
        self.hop = hop
        self.n_rb = n_rb
        self.created = created
        self.state = _PENDING
        self.pending = pending      # receivers that have not decoded it yet
        self.placement = None
        self.attempts = 1
        # the first attempt's tick, alignment and resource wait, once placed
        self.first = self.align = self.wait = 0
        self.done = 0               # decode tick of the latest placed attempt; 0 before


class _Packet:
    __slots__ = ("vehicle", "gen", "deadline", "counted", "state", "ul", "legs",
                 "legs_open", "detail")

    def __init__(self, vehicle, gen, deadline, counted):
        self.vehicle = vehicle
        self.gen = gen
        self.deadline = deadline
        self.counted = counted
        self.state = _PENDING
        self.ul = None
        self.legs = ()              # the downlink legs, once handed over
        self.legs_open = 0
        self.detail = ""


@dataclass
class ReplicationSummary:
    n_generated: int = 0
    n_delivered: int = 0
    n_dropped: int = 0
    n_failed: int = 0
    n_unallocatable: int = 0
    total_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
    ul_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
    dl_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
    util_ul: float = 0.0
    util_dl: float = 0.0

    @property
    def mean_ms(self) -> float:
        return float(self.total_ms.mean()) if self.total_ms.size else math.nan


class _Replication:
    """State and event loop for one seeded replication."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator,
                 trace_rows: list | None = None):
        self.cfg = cfg
        self.trace_rows = trace_rows
        num = phy.numerology(cfg.scs_khz)
        proc = phy.processing_times(num.mu, phy.UE_CAPABILITY)
        control = phy.control_config(cfg.control_variant)
        n_rb_total = phy.total_rbs(cfg.bandwidth_mhz, cfg.scs_khz)

        self.vehicles = scn.place_vehicles(cfg.density_veh_km_lane, rng)
        n_ue = len(self.vehicles)
        self.ctx = ctx = RadioContext(num, proc, control, n_ue, rng)

        flat, counts = scn.generate_arrivals(cfg.traffic, cfg.interval_ms, cfg.horizon_ms,
                                             n_ue, rng)

        self.warmup = phy.ms_to_ticks(cfg.warmup_ms)
        self.horizon = phy.ms_to_ticks(cfg.horizon_ms)
        # The arrival stream: (tick, vehicle, deadline) rows in (tick, vehicle,
        # index) order.  A vehicle's last arrival lies at or past the horizon,
        # so an arrival inside it finds its deadline in the next entry.
        vehicle = np.repeat(np.arange(n_ue), counts)
        gen = np.flatnonzero(flat < self.horizon)
        order = gen[np.argsort(flat[gen], kind="stable")]
        self.arrivals = np.column_stack((flat[order], vehicle[order], flat[order + 1]))
        stale_span = 2 * phy.ms_to_ticks(cfg.interval_ms)
        self.scan_cap = stale_span // num.slot_ticks + 2
        self._dynamic = cfg.scheduling == "dynamic"
        self._retx = cfg.retransmission
        self._repeats = repeats = cfg.k if cfg.retransmission == "k_repetitions" else 1
        self._bler = lnk.TARGET_BLER[cfg.mcs_table]
        # whether an attempt can draw an error at all (the rule is _attempt_ok's)
        self._lossless = cfg.retransmission == "none" and cfg.mcs_table != "HEP"
        # attempts after which a failure is final; 0 when nothing is retransmitted
        self._nack_limit = cfg.harq_max_retx if cfg.retransmission == "harq" else 0

        n_symbols, bits = SLOT_SYMBOLS[cfg.slot_type], cfg.packet_bytes * 8

        def hop(direction: str, *rest) -> _Hop:
            """The direction's grid and, per vehicle, the RBs its packet takes
            there (None when it cannot fit), then the rest of the hop."""
            grid = SlotGrid(num, n_rb_total, control, direction, n_symbols)
            rbs = lnk.footprints(cfg.mcs_table, grid.n_symbols, bits, n_rb_total)
            return _Hop(direction, grid, [rbs[v.cqi] for v in self.vehicles], *rest)

        # Uplink: a first attempt must start before the packet goes stale; a
        # retransmission sends one copy within the scan cap, with no deadline.
        # Downlink: every attempt must start within the staleness span plus
        # two slots, within the scan cap.  Uplink data is NACKed on the
        # PUCCH, downlink data on the PDCCH.
        cap = self.scan_cap
        dl_args = (repeats, stale_span + 2 * num.slot_ticks, cap)
        self._ul = hop("UL", (repeats, _PACKET_DEADLINE, NO_SCAN_LIMIT), (1, None, cap),
                       ((_DROPPED, "expired"), (_FAILED, "retx_starved")), "ul_error",
                       (ctx.pucch_occasion, ctx.tt_pucch), True)
        self._dl = hop("DL", dl_args, dl_args,
                       ((_DROPPED, "dl_starved"), (_FAILED, "dl_starved")), "dl_error",
                       (ctx.pdcch_occasion_after, ctx.tt_pdcch), False)
        # per vehicle under unicast: its receivers' RB footprints on the downlink
        self._receiver_rbs = None if cfg.dl_cast != "unicast" else [
            [self._dl.rbs[r] for r in rs]
            for rs in scn.nearest_neighbours(self.vehicles, cfg.unicast_m)]

        # in-flight events and flushes: tick -> [(kind, payload), ...] in push
        # order, and a heap of the ticks that hold a bucket
        self._calendar: dict[int, list] = {}
        self._heap: list[int] = []
        # per vehicle: its latest uplink leg under dynamic scheduling, whose
        # first grant request is in flight while it is pending and unplaced,
        # and the newest packet's downlink legs
        self._waiting: list[_Leg | None] = [None] * n_ue
        self._dl_active: list = [()] * n_ue
        # every arrival from the warm-up on is a counted packet
        self.summary = ReplicationSummary(
            n_generated=int(np.count_nonzero(self.arrivals[:, 0] >= self.warmup)))
        # latencies of the delivered packets, in ticks
        self._uls: list[int] = []
        self._dls: list[int] = []

        # the last flush lies past the horizon, so the calendar outlasts every arrival
        flush = phy.ms_to_ticks(_FLUSH_INTERVAL_MS)
        for t in range(flush, self.horizon + 4 * flush, flush):
            self._push(t, _FLUSH, None)

    # -- event machinery --------------------------------------------------------

    def _push(self, tick: int, kind: int, payload) -> None:
        bucket = self._calendar.get(tick)
        if bucket is None:
            self._calendar[tick] = [(kind, payload)]
            heapq.heappush(self._heap, tick)
        else:
            bucket.append((kind, payload))

    def run(self) -> ReplicationSummary:
        heap, calendar = self._heap, self._calendar
        heappop = heapq.heappop
        on_gen = self._on_gen
        handlers = (self._on_ingest, self._on_dci, self._on_data, self._on_nack,
                    self._on_flush)
        rows = self.arrivals
        arrivals = chain.from_iterable(rows[i:i + _ARRIVAL_CHUNK].tolist()
                                       for i in range(0, len(rows), _ARRIVAL_CHUNK))
        at, vid, deadline = next(arrivals, _NO_ARRIVAL)
        while heap:
            # an arrival goes before every event of its tick
            if at <= heap[0]:
                on_gen(at, vid, deadline)
                at, vid, deadline = next(arrivals, _NO_ARRIVAL)
                continue
            tick = heappop(heap)
            for kind, payload in calendar.pop(tick):
                handlers[kind](tick, payload)
        s = self.summary
        # one correctly rounded division per sample, as ticks_to_ms does
        uls = np.array(self._uls, dtype=np.int64)
        dls = np.array(self._dls, dtype=np.int64)
        s.total_ms = (uls + dls) / phy.TICKS_PER_MS
        s.ul_ms = uls / phy.TICKS_PER_MS
        s.dl_ms = dls / phy.TICKS_PER_MS
        window = (self.warmup, self.horizon)
        s.util_ul = self._ul.grid.utilization(*window)
        s.util_dl = self._dl.grid.utilization(*window)
        return s

    # -- arrivals --------------------------------------------------------------------

    def _on_gen(self, now: int, vid: int, deadline: int) -> None:
        """A packet arrives; it goes stale at the vehicle's next arrival."""
        pkt = _Packet(vid, now, deadline, now >= self.warmup)
        leg = self._waiting[vid]
        if leg is not None and leg.state == _PENDING and not leg.done:
            # the request in flight serves the newest packet
            self._finish_packet(leg.pkt, _DROPPED, "superseded")
            leg.pkt, leg.created, pkt.ul = pkt, now, leg
            return
        leg = pkt.ul = _Leg(pkt, self._ul, self._ul.rbs[vid], now, 1)
        if self._dynamic:
            self._waiting[vid] = leg
        self._start(leg, now)

    # -- the leg state machine ------------------------------------------------------

    def _start(self, leg: _Leg, now: int) -> None:
        """The next attempt of the leg, from `now`.  A new leg whose packet
        fits no carrier is dropped.  A retransmission (`leg.done` set), or
        any attempt under dynamic scheduling, asks for its grant: (uplink) a
        scheduling request, then the DCI.  A semi-static first attempt is
        prepared at once."""
        if leg.n_rb is None:
            self._resolve_leg(leg, _DROPPED, f"{leg.hop.direction.lower()}_unallocatable")
        elif leg.done or self._dynamic:
            if leg.hop.sr:
                now = lat.sr_chain(self.ctx, now)
            self._push(now + self.ctx.decode_half, _DCI, leg)
        else:
            self._push(now + self.ctx.prepare_half, _DATA, leg)

    def _on_data(self, now: int, leg: _Leg) -> None:
        """A (re)transmission of the leg from the instant its data is
        prepared, and its outcome: delivered, a NACK, or failed."""
        if leg.state != _PENDING:
            return
        ctx = self.ctx
        hop = leg.hop
        retx = leg.done > 0
        repeats, rule, scan = hop.retx if retx else hop.first
        deadline = (None if rule is None else leg.pkt.deadline if rule == _PACKET_DEADLINE
                    else now + rule)
        placement, align, wait, delivered = lat.data_chain(
            ctx, hop.grid, now, leg.n_rb, repeats, deadline, scan)
        if placement is None:
            self._resolve_leg(leg, *hop.starved[retx])
            return
        leg.placement = placement
        leg.done = delivered
        if not retx:
            leg.first, leg.align, leg.wait = now, align, wait
            leg.attempts = self._repeats
        if self._lossless or self._attempt_ok(leg):
            self._resolve_leg(leg, _DELIVERED, "", delivered)
        elif leg.attempts <= self._nack_limit:
            self._push(delivered, _NACK, leg)
        else:
            self._resolve_leg(leg, _FAILED, hop.error)

    def _attempt_ok(self, leg: _Leg) -> bool:
        """Whether a completed (re)transmission of the leg reached every
        receiver it still has to reach.

        HARQ draws one error per pending receiver and keeps the failed ones
        pending; k repetitions fail only when all k copies do.  Without a
        retransmission scheme an error is drawn for the HEP table but never
        for LEP, although LEP's target BLER is 0.1: such a LEP transmission
        always arrives.  ROADMAP item 2 holds the decision on that rule.
        Which of these cases applies is decided once per replication, in
        `__init__` (`_lossless`, `_retx`), and `_on_data` does not call
        this method when `_lossless` holds.  Tests override it to force
        outcomes, on configurations that draw them.
        """
        if self._lossless:
            return True
        if self._retx == "harq":
            uniform, bler = self.ctx.uniform, self._bler
            if leg.pending == 1:   # the uplink and every unicast leg: one draw, no range loop
                still = 1 if uniform() < bler else 0
            else:
                still = 0
                for _ in range(leg.pending):
                    if uniform() < bler:
                        still += 1
            leg.pending = still
            return still == 0
        if self._retx == "k_repetitions":
            # every copy draws; the attempt fails only when all k do
            uniform = self.ctx.uniform
            return max([uniform() for _ in range(self._repeats)]) >= self._bler
        # HEP without a retransmission scheme
        return not (self.ctx.uniform() < self._bler)

    def _on_nack(self, now: int, leg: _Leg) -> None:
        """The NACK hop, then the request for the retransmission's grant."""
        if leg.state != _PENDING:
            return
        leg.attempts += 1
        self._start(leg, lat.nack_chain(self.ctx, leg.hop.nack, now))

    def _on_dci(self, now: int, leg: _Leg) -> None:
        """The DCI granting or assigning the leg's next attempt."""
        if leg.state != _PENDING:
            return
        self._push(lat.grant_chain(self.ctx, now) + self.ctx.prepare_half, _DATA, leg)

    def _resolve_leg(self, leg: _Leg, state: int, detail: str,
                     delivered: int = 0) -> None:
        """Close a pending leg.  A delivered uplink hands its packet over to
        the downlink, whose legs `_on_ingest` creates at the next slot
        boundary, the gNB's preparation overlapping the gap; the packet
        resolves with its uplink or with its last downlink leg."""
        if leg.state != _PENDING:
            return
        leg.state = state
        pkt = leg.pkt
        if leg is pkt.ul:
            if state == _DELIVERED:
                ctx = self.ctx
                ready = delivered + ctx.prepare_half
                self._push(-(-ready // ctx.slot_ticks) * ctx.slot_ticks - ctx.prepare_half,
                           _INGEST, pkt)
            else:
                self._finish_packet(pkt, state, detail)
            return
        pkt.legs_open -= 1
        if state > pkt.state:
            pkt.state = state
        if detail and not pkt.detail:
            pkt.detail = detail
        if pkt.legs_open == 0:
            self._finish_packet(pkt, pkt.state, pkt.detail)

    # -- downlink hand-over --------------------------------------------------------

    def _on_ingest(self, now: int, pkt: _Packet) -> None:
        vid, dl = pkt.vehicle, self._dl
        for leg in self._dl_active[vid]:
            if leg.state == _PENDING:
                if leg.placement is not None:
                    leg.hop.grid.release(leg.placement, not_before_tick=now)
                self._resolve_leg(leg, _DROPPED, "dl_superseded")
        if self._receiver_rbs is None:
            legs = (_Leg(pkt, dl, dl.rbs[vid], now, self.cfg.harq_group_size),)
        else:
            legs = [_Leg(pkt, dl, n_rb, now, 1) for n_rb in self._receiver_rbs[vid]]
        pkt.legs = legs
        pkt.legs_open = len(legs)
        self._dl_active[vid] = legs
        for leg in legs:
            self._start(leg, now)

    # -- resolution -------------------------------------------------------------------

    def _finish_packet(self, pkt: _Packet, state: int, detail: str) -> None:
        """Record a packet whose legs are all resolved, then unlink them.

        Each leg points back at its packet.  Dropping the packet's links to
        its legs breaks that cycle, so reference counting frees both once
        the last event holding a leg is popped; the cycle collector would
        otherwise walk every finished packet, at a cost comparable to the
        event loop's own.
        """
        pkt.state = state
        pkt.detail = pkt.detail or detail
        if pkt.counted:
            if self.trace_rows is not None:
                self._trace(pkt)
            s = self.summary
            if state == _DELIVERED:
                s.n_delivered += 1
                legs = pkt.legs
                done = legs[0].done if len(legs) == 1 else max(map(attrgetter("done"), legs))
                self._uls.append(pkt.ul.done - pkt.gen)
                self._dls.append(done - legs[0].created)
            elif state == _DROPPED:
                s.n_dropped += 1
                # a leg that fits no carrier drops its packet, which counts once
                s.n_unallocatable += pkt.detail.endswith("_unallocatable")
            else:
                s.n_failed += 1
        pkt.ul = None
        pkt.legs = ()

    def _components(self, leg: _Leg) -> tuple[int, ...]:
        """A leg's latency split into the model's additive parts, in ticks, in
        `COMPONENTS` order; all 0 for a leg never placed.

        Before its first attempt comes signalling, then preparation, cut
        short for a packet that took the leg over while its request was in
        flight.  What its latest placed attempt adds past the first one's
        decode, and what the k - 1 repetitions add, is `retx`.
        """
        if not leg.done:
            return (0,) * len(COMPONENTS)
        ctx = self.ctx
        elapsed = leg.first - leg.created
        tx_proc = min(ctx.prepare_half, elapsed)
        airtime = leg.hop.grid.burst_ticks
        first_decoded = leg.first + leg.align + leg.wait + airtime + ctx.decode_half
        return (elapsed - tx_proc, tx_proc, leg.align, leg.wait, airtime, ctx.decode_half,
                leg.done - first_decoded)

    def _trace(self, pkt: _Packet) -> None:
        """One breakdown row per leg for the per-packet log."""
        base = {
            "vehicle": pkt.vehicle,
            "gen_ms": phy.ticks_to_ms(pkt.gen),
            "disposition": DISPOSITIONS[pkt.state],
            "detail": pkt.detail,
        }
        for i, leg in enumerate((pkt.ul, *pkt.legs)):
            parts = self._components(leg)
            self.trace_rows.append({
                **base, "leg": i, "direction": leg.hop.direction,
                **{f"{name}_ms": phy.ticks_to_ms(t) for name, t in zip(COMPONENTS, parts)},
                "attempts": leg.attempts, "total_ms": phy.ticks_to_ms(sum(parts)),
            })

    def _on_flush(self, now: int, _payload) -> None:
        self._ul.grid.release_expired(now)
        self._dl.grid.release_expired(now)


def run_replication(cfg: RunConfig, rng: np.random.Generator,
                    trace_rows: list | None = None) -> ReplicationSummary:
    return _Replication(cfg, rng, trace_rows).run()


# -- aggregation --------------------------------------------------------------------


@dataclass
class MetricsReport:
    config_key: str
    n_replications: int
    n_packets: int
    n_delivered: int
    n_dropped: int
    n_failed: int
    n_unallocatable: int
    mean_ms: float
    mean_ul_ms: float
    mean_dl_ms: float
    p90_ms: float
    p9999_ms: float
    drop_fraction: float
    failed_fraction: float
    util_ul: float
    util_dl: float
    ci_relative_error: float
    lloa_pass: bool
    hloa_pass: bool
    runtime_s: float


def percentile_with_drops(delivered_ms: np.ndarray, n_undelivered: int, q: float) -> float:
    """q-quantile over every generated packet, undelivered ones counted as
    infinite latency."""
    n = delivered_ms.size + n_undelivered
    if n == 0:
        return math.nan
    rank = max(0, math.ceil(q * n) - 1)
    if rank >= delivered_ms.size:
        return math.inf
    return float(np.partition(delivered_ms, rank)[rank])


# each service's latency budget and the report percentile it bounds
REQUIREMENTS_MS = {"LLoA": ("p90_ms", 23.0), "HLoA": ("p9999_ms", 6.0)}


def check_requirement(report: MetricsReport, service: str) -> tuple[bool, float]:
    """Latency-budget compliance at the service's reliability percentile;
    returns (passed, margin in ms), a negative margin meaning failure."""
    percentile, budget = REQUIREMENTS_MS[service]
    value = getattr(report, percentile)
    if math.isinf(value) or math.isnan(value):
        return False, -math.inf
    return value <= budget, budget - value


def aggregate(cfg: RunConfig, reps: list[ReplicationSummary], runtime_s: float,
              rel_err: float) -> MetricsReport:
    """Pool per-packet samples across replications (never averages of
    averages); the confidence interval is over replication means."""
    delivered = np.concatenate([r.total_ms for r in reps])
    uls = np.concatenate([r.ul_ms for r in reps])
    dls = np.concatenate([r.dl_ms for r in reps])
    n_gen = sum(r.n_generated for r in reps)
    n_drop = sum(r.n_dropped for r in reps)
    n_fail = sum(r.n_failed for r in reps)
    p90 = percentile_with_drops(delivered, n_drop + n_fail, 0.90)
    p9999 = percentile_with_drops(delivered, n_drop + n_fail, 0.9999)
    report = MetricsReport(
        config_key=cfg.key(),
        n_replications=len(reps),
        n_packets=n_gen,
        n_delivered=int(delivered.size),
        n_dropped=n_drop,
        n_failed=n_fail,
        n_unallocatable=sum(r.n_unallocatable for r in reps),
        mean_ms=float(delivered.mean()) if delivered.size else math.nan,
        mean_ul_ms=float(uls.mean()) if uls.size else math.nan,
        mean_dl_ms=float(dls.mean()) if dls.size else math.nan,
        p90_ms=p90,
        p9999_ms=p9999,
        drop_fraction=n_drop / n_gen if n_gen else math.nan,
        failed_fraction=n_fail / n_gen if n_gen else math.nan,
        util_ul=float(np.mean([r.util_ul for r in reps])),
        util_dl=float(np.mean([r.util_dl for r in reps])),
        ci_relative_error=rel_err,
        lloa_pass=False,
        hloa_pass=False,
        runtime_s=runtime_s,
    )
    report.lloa_pass = check_requirement(report, "LLoA")[0]
    report.hloa_pass = check_requirement(report, "HLoA")[0]
    return report


@functools.cache
def _t975() -> dict[int, float]:
    """The Student t 0.975 quantile by degrees of freedom: the doubles
    ``scipy.special.stdtrit(df, 0.975)`` returns, so that no run loads
    scipy.  Read on first use, not at import."""
    return {int(r["df"]): float(r["t975"]) for r in phy.load_rows("student_t975.csv")}


def relative_error(means: list[float]) -> float:
    """95% CI half-width over replication means divided by their mean.

    More means than the quantile table covers are a ConfigurationError;
    `RunConfig` keeps ``max_replications`` within it.
    """
    table = _t975()
    if len(means) - 1 > len(table):
        raise phy.ConfigurationError(
            f"{len(means)} replication means exceed the Student t table, which "
            f"covers {len(table) + 1}")
    valid = [m for m in means if not math.isnan(m)]
    if len(valid) < 2 or len(valid) < len(means):
        return math.inf
    mean = float(np.mean(valid))
    if mean == 0:
        return math.inf
    half = table[len(valid) - 1] * np.std(valid, ddof=1) / math.sqrt(len(valid))
    return float(half / abs(mean))


def run(cfg: RunConfig) -> MetricsReport:
    """Replications until the stopping rule is met, then pooled metrics."""
    t0 = time.perf_counter()
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.max_replications)
    reps: list[ReplicationSummary] = []
    means: list[float] = []
    rel = math.inf
    for i in range(cfg.max_replications):
        summary = run_replication(cfg, np.random.default_rng(seeds[i]))
        reps.append(summary)
        means.append(summary.mean_ms)
        if len(reps) >= cfg.min_replications:
            rel = relative_error(means)
            if rel < cfg.relative_error_target:
                break
    return aggregate(cfg, reps, time.perf_counter() - t0, rel)
