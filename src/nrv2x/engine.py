"""Seeded replications of the full uplink + downlink pipeline.

Each replication is a single-threaded event loop over one cell: packets walk
their signalling and data chains as timed events so that every touch of
shared state (the DCI queue, the two resource grids) happens in global time
order.  Replications repeat until the 95% confidence half-width of the mean
radio latency falls below the relative-error target.

Two protocol details shape congestion behaviour.  First, a UE runs one
signalling process: when a fresh packet supersedes a stale one, the
in-flight scheduling request or grant serves the newest packet rather than
re-entering the queue, which bounds the DCI backlog at one message per UE.
Second, the hand-over between the legs happens outside the radio budget:
the uplink packet leaves the radio domain once decoded, and its downlink
counterpart is created against the next slot boundary with the gNB-side
preparation overlapping that gap; only the per-leg radio latencies are
summed.

Arrivals are generated for the whole horizon when a replication is set up,
but only each vehicle's first ``_GEN`` event goes on the heap; when an
arrival fires it pushes the vehicle's next one.  The heap therefore holds
O(vehicles + packets in flight) entries rather than every arrival.  Each
vehicle reserves a block of sequence numbers at setup, one per in-horizon
arrival: its arrival ``i`` is pushed with sequence number ``base + i + 1``,
``base`` being the number of arrivals reserved by the vehicles before it,
and all other events number on after the last block.  The heap keys
``(tick, seq)`` are thus the ones an eager push of every arrival would
give, so events pop in the same order.
"""

from __future__ import annotations

import heapq
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import control as ctl
from . import latency as lat
from . import link as lnk
from . import phy
from . import scenario as scn
from .grid import SlotGrid

# event kinds, dispatched in the replication loop
(_GEN, _UL_SIG_DCI, _UL_SIG_DATA, _UL_DATA, _UL_RETX_DCI, _UL_RETX_DATA,
 _UL_NACK, _DL_INGEST, _DL_DCI, _DL_DATA, _DL_NACK, _FLUSH) = range(12)

_FLUSH_INTERVAL_MS = 50.0

# packet / leg resolution states
_PENDING, _DELIVERED, _DROPPED, _FAILED = range(4)

DISPOSITIONS = {_DELIVERED: "delivered", _DROPPED: "dropped_at_tx",
                _FAILED: "delivery_failed"}


@dataclass(frozen=True)
class RunConfig:
    """One evaluation point: radio scheme plus scenario and stopping rule."""

    scs_khz: int = 30
    bandwidth_mhz: int = 20
    scheduling: str = "semi_static"
    retransmission: str = "none"
    k: int = 0
    harq_max_retx: int = 0
    dl_cast: str = "broadcast"
    unicast_m: int = 0
    mcs_table: str = "LEP"
    slot_type: str = "full"
    control_variant: str = "conf1"
    harq_group_size: int = 1
    traffic: str = "periodic"
    interval_ms: float = 100.0
    density_veh_km_lane: float = 10.0
    packet_bytes: int = 300
    layers: int = 2
    ue_capability: int = 2
    cell_radius_m: float = lnk.DEFAULT_CELL_RADIUS_M
    lanes: int = scn.DEFAULT_LANES
    overhead_re_per_rb: int = lnk.DEFAULT_OVERHEAD_RE_PER_RB
    edge_cqi: int = lnk.DEFAULT_EDGE_CQI
    horizon_ms: float = 10_000.0
    warmup_ms: float = 200.0
    seed: int = 0
    min_replications: int = 10
    max_replications: int = 64
    relative_error_target: float = 0.01

    def __post_init__(self) -> None:
        if self.density_veh_km_lane < 0:
            raise phy.ConfigurationError("density must be non-negative")
        if scn.vehicle_count(self.density_veh_km_lane, self.lanes, self.cell_radius_m) == 0:
            raise phy.ConfigurationError(
                f"density {self.density_veh_km_lane:g} veh/km/lane places no vehicle in the cell")
        if self.warmup_ms >= self.horizon_ms:
            raise phy.ConfigurationError("warmup must end before the horizon")
        if self.min_replications > self.max_replications:
            raise phy.ConfigurationError("min_replications exceeds max_replications")

    def scheme(self) -> lat.SchemeConfig:
        return lat.SchemeConfig(
            scheduling=self.scheduling,
            retransmission=self.retransmission,
            k=self.k,
            harq_max_retx=self.harq_max_retx,
            dl_cast=self.dl_cast,
            unicast_m=self.unicast_m,
            mcs_table=self.mcs_table,
            slot_type=self.slot_type,
            control_variant=self.control_variant,
            harq_group_size=self.harq_group_size,
        )

    def traffic_model(self) -> scn.TrafficModel:
        return scn.TrafficModel(self.traffic, self.interval_ms, self.packet_bytes)

    def key(self) -> str:
        """Canonical identifier of the configuration point (seed excluded)."""
        parts = [
            f"scs{self.scs_khz}", f"bw{self.bandwidth_mhz}", self.scheduling,
            self.retransmission
            + (str(self.k) if self.retransmission == "k_repetitions" else "")
            + (f"n{self.harq_max_retx}" if self.retransmission == "harq" else ""),
            self.dl_cast + (f"m{self.unicast_m}" if self.dl_cast == "unicast" else ""),
            self.mcs_table, self.slot_type, self.control_variant,
            self.traffic, f"t{self.interval_ms:g}", f"rho{self.density_veh_km_lane:g}",
        ]
        return "-".join(parts)


class _Leg:
    __slots__ = ("pkt", "n_rb", "created", "bd", "state", "cancelled", "pending",
                 "placement", "cycle_start")

    def __init__(self, pkt, n_rb, created, pending):
        self.pkt = pkt
        self.n_rb = n_rb
        self.created = created
        self.bd = lat.LatencyBreakdown("DL")
        self.state = _PENDING
        self.cancelled = False
        self.pending = pending
        self.placement = None
        self.cycle_start = 0


class _Packet:
    __slots__ = ("vehicle", "gen", "deadline", "counted", "n_rb_ul", "bd",
                 "state", "ul_delivered", "legs", "legs_open", "cycle_start",
                 "detail")

    def __init__(self, vehicle, gen, deadline, counted, n_rb_ul):
        self.vehicle = vehicle
        self.gen = gen
        self.deadline = deadline
        self.counted = counted
        self.n_rb_ul = n_rb_ul
        self.bd = lat.LatencyBreakdown("UL")
        self.state = _PENDING
        self.ul_delivered = 0
        self.legs = None
        self.legs_open = 0
        self.cycle_start = 0
        self.detail = ""


class _Chain:
    """Per-vehicle uplink signalling process (dynamic scheduling)."""

    __slots__ = ("active", "sr_wait", "queue", "grant_done")

    def __init__(self):
        self.active = False
        self.sr_wait = 0
        self.queue = 0
        self.grant_done = 0


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
        self.rng = rng
        self.trace_rows = trace_rows
        scheme = cfg.scheme()
        self.scheme = scheme
        num = phy.numerology(cfg.scs_khz)
        proc = phy.processing_times(num.mu, cfg.ue_capability)
        control = phy.control_config(cfg.control_variant)
        n_rb_total = phy.total_rbs(cfg.bandwidth_mhz, cfg.scs_khz)
        profile = lnk.default_link_profile(cfg.mcs_table, cfg.edge_cqi)

        self.vehicles = scn.place_vehicles(
            cfg.density_veh_km_lane, profile, rng, cfg.lanes, cfg.cell_radius_m
        )
        n_ue = len(self.vehicles)
        ul_grid = SlotGrid(num, n_rb_total, control, "UL")
        dl_grid = SlotGrid(num, n_rb_total, control, "DL")
        self.ctx = lat.RadioContext(
            num, proc, control, scheme, ul_grid, dl_grid,
            ctl.DciQueue(control, num.slot_ticks),
            ctl.SrConfig.for_cell(control, n_ue),
            rng,
        )
        ctx = self.ctx

        # packet footprints per CQI for each direction's data-region length
        model = cfg.traffic_model()
        bits = model.packet_bits
        self._rb_ul: dict[int, int | None] = {}
        self._rb_dl: dict[int, int | None] = {}
        for cqi in {v.cqi for v in self.vehicles}:
            mcs = lnk.mcs_from_cqi(cqi, cfg.mcs_table)
            for cache, direction in ((self._rb_ul, "UL"), (self._rb_dl, "DL")):
                try:
                    cache[cqi] = lnk.rbs_for_packet(
                        bits, mcs, ctx.n_sym[direction], cfg.layers,
                        cfg.overhead_re_per_rb, max_rb=n_rb_total,
                    )
                except lnk.AllocationInfeasible:
                    cache[cqi] = None

        self.receivers = (
            scn.nearest_neighbours(self.vehicles, scheme.unicast_m)
            if scheme.dl_cast == "unicast" else None
        )
        self.arrivals = [scn.generate_arrivals(model, cfg.horizon_ms, rng)
                         for _ in self.vehicles]

        self.warmup = phy.ms_to_ticks(cfg.warmup_ms)
        self.horizon = phy.ms_to_ticks(cfg.horizon_ms)
        stale_span = 2 * phy.ms_to_ticks(cfg.interval_ms)
        self.scan_cap = stale_span // num.slot_ticks + 2
        self.stale_span = stale_span

        self._heap: list = []
        self._seq = 0
        self._pending: list[_Packet | None] = [None] * n_ue
        self._chains = [_Chain() for _ in range(n_ue)]
        self._dl_active: dict[int, list[_Leg]] = {}
        self.summary = ReplicationSummary()
        self._totals: list[float] = []
        self._uls: list[float] = []
        self._dls: list[float] = []

        # arrival ticks are sorted and end with one past the horizon
        self._gen_base = [0] * n_ue
        self._gen_count = [0] * n_ue
        for v in self.vehicles:
            times = self.arrivals[v.id]
            n_gen = int(times[:-1].searchsorted(self.horizon))
            self._gen_base[v.id] = self._seq
            self._gen_count[v.id] = n_gen
            if n_gen:
                heapq.heappush(self._heap, (int(times[0]), self._seq + 1, _GEN, (v.id, 0)))
            self._seq += n_gen
        flush = phy.ms_to_ticks(_FLUSH_INTERVAL_MS)
        for t in range(flush, self.horizon + 4 * flush, flush):
            self._push(t, _FLUSH, None)

    # -- event machinery --------------------------------------------------------

    def _push(self, tick: int, kind: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (tick, self._seq, kind, payload))

    def run(self) -> ReplicationSummary:
        heap = self._heap
        handlers = {
            _GEN: self._on_gen,
            _UL_SIG_DCI: self._on_ul_sig_dci,
            _UL_SIG_DATA: self._on_ul_sig_data,
            _UL_DATA: self._on_ul_data,
            _UL_RETX_DCI: self._on_ul_retx_dci,
            _UL_RETX_DATA: self._on_ul_retx_data,
            _UL_NACK: self._on_ul_nack,
            _DL_INGEST: self._on_dl_ingest,
            _DL_DCI: self._on_dl_dci,
            _DL_DATA: self._on_dl_data,
            _DL_NACK: self._on_dl_nack,
            _FLUSH: self._on_flush,
        }
        while heap:
            tick, _, kind, payload = heapq.heappop(heap)
            handlers[kind](tick, payload)
        s = self.summary
        s.total_ms = np.array(self._totals)
        s.ul_ms = np.array(self._uls)
        s.dl_ms = np.array(self._dls)
        window = (self.warmup, self.horizon)
        s.util_ul = self.ctx.grids["UL"].utilization(*window)
        s.util_dl = self.ctx.grids["DL"].utilization(*window)
        return s

    # -- uplink -------------------------------------------------------------------

    def _on_gen(self, now: int, payload) -> None:
        vid, idx = payload
        nxt = idx + 1
        next_tick = int(self.arrivals[vid][nxt])
        if nxt < self._gen_count[vid]:
            heapq.heappush(self._heap, (next_tick, self._gen_base[vid] + nxt + 1, _GEN,
                                        (vid, nxt)))
        pkt = _Packet(vid, now, next_tick, now >= self.warmup,
                      self._rb_ul[self.vehicles[vid].cqi])
        if pkt.counted:
            self.summary.n_generated += 1
        if pkt.n_rb_ul is None:
            self.summary.n_unallocatable += pkt.counted
            self._finish_packet(pkt, _DROPPED, "ul_unallocatable")
            return
        ctx = self.ctx
        if self.scheme.scheduling == "dynamic":
            prev = self._pending[vid]
            if prev is not None and prev.state == _PENDING:
                self._finish_packet(prev, _DROPPED, "superseded")
            self._pending[vid] = pkt
            chain = self._chains[vid]
            if not chain.active:
                chain.active = True
                sr = lat.sr_chain(ctx, now)
                chain.sr_wait = sr.sr_wait
                self._push(sr.done + ctx.decode_half, _UL_SIG_DCI, vid)
        else:
            self._push(now + ctx.prepare_half, _UL_DATA, pkt)

    def _on_ul_sig_dci(self, now: int, vid: int) -> None:
        ctx = self.ctx
        chain = self._chains[vid]
        grant = lat.grant_chain(ctx, now)
        chain.queue = grant.queue
        chain.grant_done = grant.done
        self._push(grant.done + ctx.prepare_half, _UL_SIG_DATA, vid)

    def _on_ul_sig_data(self, now: int, vid: int) -> None:
        """The grant issued to this UE serves its newest waiting packet."""
        ctx = self.ctx
        chain = self._chains[vid]
        chain.active = False
        pkt = self._pending[vid]
        if pkt is None or pkt.state != _PENDING:
            return
        timing = lat.data_chain(
            ctx, "UL", now, pkt.n_rb_ul, repeats=self.scheme.repeats,
            deadline_tick=pkt.deadline,
        )
        if timing.placement is None:
            self._pending[vid] = None
            self._finish_packet(pkt, _DROPPED, "expired")
            return
        self._pending[vid] = None
        bd = pkt.bd
        bd.tx_proc = min(ctx.prepare_half, now - pkt.gen)
        bd.sched = (now - pkt.gen) - bd.tx_proc
        bd.sr_wait = chain.sr_wait
        bd.queue_wait = chain.queue
        self._fill_data_parts(bd, timing)
        self._resolve_attempt(pkt, timing.delivered)

    def _on_ul_data(self, now: int, pkt: _Packet) -> None:
        """Semi-static initial transmission from pre-assigned resources."""
        if pkt.state != _PENDING:
            return
        ctx = self.ctx
        timing = lat.data_chain(
            ctx, "UL", now, pkt.n_rb_ul, repeats=self.scheme.repeats,
            deadline_tick=pkt.deadline,
        )
        if timing.placement is None:
            self._finish_packet(pkt, _DROPPED, "expired")
            return
        bd = pkt.bd
        bd.tx_proc = ctx.prepare_half
        self._fill_data_parts(bd, timing)
        self._resolve_attempt(pkt, timing.delivered)

    def _fill_data_parts(self, bd: lat.LatencyBreakdown, timing: lat.DataTiming) -> None:
        ctx = self.ctx
        bd.align = timing.align
        bd.wait = timing.wait
        bd.airtime = timing.airtime
        bd.rx_proc = ctx.decode_half
        if self.scheme.retransmission == "k_repetitions":
            bd.retx = (self.scheme.repeats - 1) * ctx.slot_ticks
            bd.attempts = self.scheme.repeats

    def _resolve_attempt(self, pkt: _Packet, delivered: int) -> None:
        """Sample the outcome of a completed uplink (re)transmission."""
        scheme = self.scheme
        ok = True
        if scheme.retransmission == "harq":
            ok = not (self.rng.random() < scheme.bler)
        elif scheme.retransmission == "k_repetitions":
            ok = bool((self.rng.random(scheme.k) < scheme.bler).sum() < scheme.k)
        elif scheme.mcs_table == "HEP":
            ok = not (self.rng.random() < scheme.bler)
        if ok:
            pkt.ul_delivered = delivered
            self._ingest_dl(pkt)
            return
        if scheme.retransmission == "harq" and pkt.bd.attempts <= scheme.harq_max_retx:
            self._push(delivered, _UL_NACK, pkt)
        else:
            self._finish_packet(pkt, _FAILED, "ul_error")

    def _on_ul_nack(self, now: int, pkt: _Packet) -> None:
        if pkt.state != _PENDING:
            return
        ctx = self.ctx
        pkt.cycle_start = now
        pkt.bd.attempts += 1
        nack_done = lat.nack_chain(ctx, "UL", now)
        sr = lat.sr_chain(ctx, nack_done)
        self._push(sr.done + ctx.decode_half, _UL_RETX_DCI, pkt)

    def _on_ul_retx_dci(self, now: int, pkt: _Packet) -> None:
        if pkt.state != _PENDING:
            return
        ctx = self.ctx
        grant = lat.grant_chain(ctx, now)
        self._push(grant.done + ctx.prepare_half, _UL_RETX_DATA, pkt)

    def _on_ul_retx_data(self, now: int, pkt: _Packet) -> None:
        if pkt.state != _PENDING:
            return
        timing = lat.data_chain(self.ctx, "UL", now, pkt.n_rb_ul,
                                scan_limit_slots=self.scan_cap)
        if timing.placement is None:
            self._finish_packet(pkt, _FAILED, "retx_starved")
            return
        pkt.bd.retx += timing.delivered - pkt.cycle_start
        self._resolve_attempt(pkt, timing.delivered)

    # -- downlink -------------------------------------------------------------------

    def _ingest_dl(self, pkt: _Packet) -> None:
        """Schedule creation of the downlink counterpart(s) at the hand-over
        boundary (next slot start, gNB preparation overlapping the gap)."""
        ctx = self.ctx
        ready = pkt.ul_delivered + ctx.prepare_half
        boundary = -(-ready // ctx.slot_ticks) * ctx.slot_ticks
        self._push(boundary - ctx.prepare_half, _DL_INGEST, pkt)

    def _on_dl_ingest(self, now: int, pkt: _Packet) -> None:
        vid = pkt.vehicle
        for leg in self._dl_active.get(vid, ()):
            if leg.state == _PENDING:
                leg.cancelled = True
                if leg.placement is not None:
                    self.ctx.grids["DL"].release(leg.placement, not_before_tick=now)
                self._resolve_leg(leg, _DROPPED, "dl_superseded")
        scheme = self.scheme
        if scheme.dl_cast == "unicast":
            cqis = [self.vehicles[r].cqi for r in self.receivers[vid]]
            pendings = [1] * len(cqis)
        else:
            cqis = [self.vehicles[vid].cqi]
            pendings = [scheme.harq_group_size]
        legs = [_Leg(pkt, self._rb_dl[cqi], now, pending)
                for cqi, pending in zip(cqis, pendings)]
        pkt.legs = legs
        pkt.legs_open = len(legs)
        self._dl_active[vid] = legs
        ctx = self.ctx
        for leg in legs:
            if leg.n_rb is None:
                self.summary.n_unallocatable += pkt.counted
                self._resolve_leg(leg, _DROPPED, "dl_unallocatable")
            elif scheme.scheduling == "dynamic":
                self._push(now + ctx.decode_half, _DL_DCI, leg)
            else:
                self._push(now + ctx.prepare_half, _DL_DATA, leg)

    def _on_dl_dci(self, now: int, leg: _Leg) -> None:
        if leg.state != _PENDING or leg.cancelled:
            return
        ctx = self.ctx
        grant = lat.grant_chain(ctx, now)
        if leg.cycle_start == 0:
            leg.bd.sched = grant.done - leg.created
            leg.bd.queue_wait = grant.queue
        self._push(grant.done + ctx.prepare_half, _DL_DATA, leg)

    def _on_dl_data(self, now: int, leg: _Leg) -> None:
        if leg.state != _PENDING or leg.cancelled:
            return
        ctx = self.ctx
        retx = leg.cycle_start > 0
        timing = lat.data_chain(
            ctx, "DL", now, leg.n_rb, repeats=self.scheme.repeats,
            deadline_tick=now + self.stale_span + 2 * ctx.slot_ticks,
            scan_limit_slots=self.scan_cap,
        )
        if timing.placement is None:
            self._resolve_leg(leg, _FAILED if retx else _DROPPED, "dl_starved")
            return
        leg.placement = timing.placement
        if retx:
            leg.bd.retx += timing.delivered - leg.cycle_start
        else:
            bd = leg.bd
            bd.tx_proc = ctx.prepare_half
            self._fill_data_parts(bd, timing)
        self._resolve_dl_attempt(leg, timing.delivered)

    def _resolve_dl_attempt(self, leg: _Leg, delivered: int) -> None:
        scheme = self.scheme
        ok = True
        if scheme.retransmission == "harq":
            # one scalar draw per receiver still waiting: the same stream
            # as rng.random(leg.pending), without the array round trip
            random, bler = self.rng.random, scheme.bler
            still = 0
            for _ in range(leg.pending):
                if random() < bler:
                    still += 1
            leg.pending = still
            ok = still == 0
        elif scheme.retransmission == "k_repetitions":
            ok = bool((self.rng.random(scheme.k) < scheme.bler).sum() < scheme.k)
        elif scheme.mcs_table == "HEP":
            ok = not (self.rng.random() < scheme.bler)
        if ok:
            self._resolve_leg(leg, _DELIVERED, "", delivered)
            return
        if scheme.retransmission == "harq" and leg.bd.attempts <= scheme.harq_max_retx:
            self._push(delivered, _DL_NACK, leg)
        else:
            self._resolve_leg(leg, _FAILED, "dl_error")

    def _on_dl_nack(self, now: int, leg: _Leg) -> None:
        if leg.state != _PENDING or leg.cancelled:
            return
        ctx = self.ctx
        leg.cycle_start = now
        leg.bd.attempts += 1
        nack_done = lat.nack_chain(ctx, "DL", now)
        self._push(nack_done + ctx.decode_half, _DL_DCI, leg)

    # -- resolution -------------------------------------------------------------------

    def _resolve_leg(self, leg: _Leg, state: int, detail: str,
                     delivered: int = 0) -> None:
        if leg.state != _PENDING:
            return
        leg.state = state
        pkt = leg.pkt
        pkt.legs_open -= 1
        if detail and not pkt.detail:
            pkt.detail = detail
        if pkt.legs_open == 0 and pkt.state == _PENDING:
            states = {l.state for l in pkt.legs}
            if states == {_DELIVERED}:
                self._finish_packet(pkt, _DELIVERED, "")
            elif _DROPPED in states:
                self._finish_packet(pkt, _DROPPED, pkt.detail)
            else:
                self._finish_packet(pkt, _FAILED, pkt.detail)

    def _finish_packet(self, pkt: _Packet, state: int, detail: str) -> None:
        if pkt.state != _PENDING:
            return
        pkt.state = state
        pkt.detail = pkt.detail or detail
        if not pkt.counted:
            return
        if self.trace_rows is not None:
            self._trace(pkt)
        s = self.summary
        if state == _DELIVERED:
            s.n_delivered += 1
            ul = pkt.bd.total_ticks
            dl = max(l.bd.total_ticks for l in pkt.legs)
            self._uls.append(phy.ticks_to_ms(ul))
            self._dls.append(phy.ticks_to_ms(dl))
            self._totals.append(phy.ticks_to_ms(ul + dl))
        elif state == _DROPPED:
            s.n_dropped += 1
        else:
            s.n_failed += 1

    def _trace(self, pkt: _Packet) -> None:
        """One breakdown row per leg for the per-packet log."""
        base = {
            "vehicle": pkt.vehicle,
            "gen_ms": phy.ticks_to_ms(pkt.gen),
            "disposition": DISPOSITIONS[pkt.state] if pkt.state != _PENDING else "pending",
            "detail": pkt.detail,
        }
        self.trace_rows.append({**base, "leg": 0, **pkt.bd.as_ms_dict()})
        for i, leg in enumerate(pkt.legs or ()):
            self.trace_rows.append({**base, "leg": i + 1, **leg.bd.as_ms_dict()})

    def _on_flush(self, now: int, _payload) -> None:
        self.ctx.grids["UL"].release_expired(now)
        self.ctx.grids["DL"].release_expired(now)


def run_replication(cfg: RunConfig, rng: np.random.Generator,
                    trace_rows: list | None = None) -> ReplicationSummary:
    return _Replication(cfg, rng, trace_rows).run()


def write_packet_trace(path, trace_rows: list) -> None:
    """Dump per-packet breakdown rows as CSV."""
    import csv as _csv

    if not trace_rows:
        raise phy.ConfigurationError("empty trace")
    with open(path, "w", newline="") as fh:
        writer = _csv.DictWriter(fh, fieldnames=list(trace_rows[0]))
        writer.writeheader()
        writer.writerows(trace_rows)


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

    def to_row(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_row(), sort_keys=True)


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


REQUIREMENTS_MS = {"LLoA": (0.90, 23.0), "HLoA": (0.9999, 6.0)}


def check_requirement(report: MetricsReport, service: str) -> tuple[bool, float]:
    """Latency-budget compliance at the service's reliability percentile;
    returns (passed, margin in ms), a negative margin meaning failure."""
    q, budget = REQUIREMENTS_MS[service]
    value = report.p90_ms if q == 0.90 else report.p9999_ms
    if math.isinf(value) or math.isnan(value):
        return False, -math.inf
    return value <= budget, budget - value


def aggregate(cfg: RunConfig, reps: list[ReplicationSummary], runtime_s: float,
              rel_err: float) -> MetricsReport:
    """Pool per-packet samples across replications (never averages of
    averages); the confidence interval is over replication means."""
    if not reps:
        raise phy.ConfigurationError("nothing to aggregate")
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


def relative_error(means: list[float]) -> float:
    """95% CI half-width over replication means divided by their mean.

    scipy is imported here, not at module level: loading it costs more than
    a short replication, and only the stopping rule needs it.
    """
    from scipy.special import stdtrit

    valid = [m for m in means if not math.isnan(m)]
    if len(valid) < 2 or len(valid) < len(means):
        return math.inf
    mean = float(np.mean(valid))
    if mean == 0:
        return math.inf
    half = stdtrit(len(valid) - 1, 0.975) * np.std(valid, ddof=1) / math.sqrt(len(valid))
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
