"""The whole engine against a reference grid: replications whose every
`allocate`, `release` and `release_expired` is answered by a brute-force
grid that shares no code with `SlotGrid`'s bit masks, memo or runs give the
same trace rows, counts, latencies and utilisation as the engine's own."""

from dataclasses import replace

import numpy as np
import pytest

from nrv2x import engine
from nrv2x.engine import RunConfig
from nrv2x.grid import NO_SCAN_LIMIT, Placement, SlotGrid


class ReferenceGrid:
    """One direction's data grid as a `bytearray` of RBs per (slot, data
    symbol), 1 for an occupied RB.  First fit tries every start symbol of
    every slot from the earliest tick on and takes the lowest RB whose
    window, repeat slots included, is free; no memo, no runs.  A slot's
    window unions are cached until the slot changes.  Only the geometry is
    read from the engine's grid."""

    def __init__(self, grid):
        self.n_rb = grid.n_rb
        self.n_symbols = grid.n_symbols
        self.slot_ticks = grid.slot_ticks
        self.symbol_ticks = grid.symbol_ticks
        self.burst_ticks = grid.burst_ticks
        self.region_start = grid.region_start
        self.region_len = grid.region_len
        # admissible starts as data-region symbol indices
        self.starts = range(self.region_len - self.n_symbols + 1)
        self.live: dict[int, list[bytearray]] = {}   # slot -> one row per data symbol
        self.unions: dict[int, list[bytes]] = {}     # slot -> per start, its window's union
        self.used: dict[int, int] = {}               # area of slots dropped by expiry
        self.released_before = 0

    def _unions(self, slot):
        """Per start, the RBs occupied in some symbol of its window of `slot`."""
        u = self.unions.get(slot)
        if u is None:
            rows = self.live.get(slot) or [bytes(self.n_rb)] * self.region_len
            # the first row twice, so that max always sees two of them
            u = self.unions[slot] = [bytes(map(max, rows[i], *rows[i:i + self.n_symbols]))
                                     for i in self.starts]
        return u

    def _write(self, slot, i, rb, n_rb, value):
        rows = self.live.setdefault(
            slot, [bytearray(self.n_rb) for _ in range(self.region_len)])
        for row in rows[i:i + self.n_symbols]:
            assert all(b != value for b in row[rb:rb + n_rb])
            row[rb:rb + n_rb] = bytes([value]) * n_rb
        self.unions.pop(slot, None)

    def allocate(self, n_rb, earliest_tick, repeats=1, max_tx_end_tick=None,
                 scan_limit_slots=NO_SCAN_LIMIT):
        first_slot = earliest_tick // self.slot_ticks
        extra = (repeats - 1) * self.slot_ticks
        airtime = self.burst_ticks + extra
        free_run = bytes(n_rb)
        first_boundary = None
        for slot in range(first_slot, first_slot + scan_limit_slots):
            unions = [self._unions(slot + r) for r in range(repeats)]
            for i in self.starts:
                sym = self.region_start + i
                tick = slot * self.slot_ticks + sym * self.symbol_ticks
                if tick < earliest_tick:
                    continue
                if first_boundary is None:
                    first_boundary = tick
                if max_tx_end_tick is not None and tick + airtime > max_tx_end_tick:
                    return None, first_boundary
                busy = unions[0][i] if repeats == 1 else bytes(map(max, *(u[i] for u in unions)))
                rb = busy.find(free_run)
                if rb >= 0:
                    for r in range(repeats):
                        self._write(slot + r, i, rb, n_rb, 1)
                    return Placement(slot, sym, self.n_symbols, rb, n_rb, repeats, tick,
                                     tick + airtime), first_boundary
        if first_boundary is None:  # the scan limit ended before the first start
            first_boundary = min(
                t for slot in (first_slot, first_slot + 1) for i in self.starts
                if (t := slot * self.slot_ticks + (self.region_start + i) * self.symbol_ticks)
                >= earliest_tick)
        return None, first_boundary

    def release(self, p, not_before_tick=None):
        i = p.sym_start - self.region_start
        for slot in range(p.slot_idx, p.slot_idx + p.repeats):
            start = slot * self.slot_ticks + p.sym_start * self.symbol_ticks
            if slot < self.released_before or slot not in self.live:
                continue
            if not_before_tick is not None and start < not_before_tick:
                continue
            self._write(slot, i, p.rb_start, p.n_rb, 0)

    def release_expired(self, now_tick):
        horizon = now_tick // self.slot_ticks
        stale = [slot for slot in self.live if slot < horizon]
        for slot in stale:
            area = sum(sum(row) for row in self.live.pop(slot))
            self.unions.pop(slot, None)
            self.used[slot] = self.used.get(slot, 0) + area
        if stale:
            self.released_before = max(self.released_before, max(stale) + 1)
        return len(stale)

    def utilization(self, start_tick, end_tick):
        first = -(-start_tick // self.slot_ticks)
        last = end_tick // self.slot_ticks
        used = sum(a for slot, a in self.used.items() if first <= slot < last)
        used += sum(sum(row) for slot, rows in self.live.items() if first <= slot < last
                    for row in rows)
        return used / ((last - first) * self.region_len * self.n_rb)


class ReferenceReplication(engine._Replication):
    """A replication whose two grids are `ReferenceGrid`s."""

    def __init__(self, cfg, rng, trace_rows=None):
        super().__init__(cfg, rng, trace_rows)
        self._ul = replace(self._ul, grid=ReferenceGrid(self._ul.grid))
        self._dl = replace(self._dl, grid=ReferenceGrid(self._dl.grid))


LOADED = dict(scs_khz=30, bandwidth_mhz=10, interval_ms=20.0, warmup_ms=20.0)
DYNAMIC_HARQ_UNICAST = dict(
    LOADED, scheduling="dynamic", control_variant="conf2", retransmission="harq",
    harq_max_retx=2, dl_cast="unicast", unicast_m=3, traffic="aperiodic",
    density_veh_km_lane=30.0, horizon_ms=80.0)
POINTS = {
    # criterion 8a's overloaded grid
    "mini7_60khz_rho60": dict(LOADED, scs_khz=60, slot_type="mini7", density_veh_km_lane=60.0,
                              horizon_ms=80.0),
    "mini7_k2_rho40": dict(LOADED, slot_type="mini7", retransmission="k_repetitions", k=2,
                           density_veh_km_lane=40.0, horizon_ms=60.0),
    # overloaded: saturated runs, repeats and a grid of several layers meet
    "mini4_k2_rho40": dict(LOADED, slot_type="mini4", retransmission="k_repetitions", k=2,
                           density_veh_km_lane=40.0, horizon_ms=55.0),
    "mini4_dynamic_harq_unicast_rho30": dict(DYNAMIC_HARQ_UNICAST, slot_type="mini4"),
    "mini7_dynamic_harq_unicast_rho30": dict(DYNAMIC_HARQ_UNICAST, slot_type="mini7"),
    "full_rho80": dict(LOADED, slot_type="full", density_veh_km_lane=80.0, horizon_ms=100.0),
}


def _replicate(cls, cfg):
    rows = []
    rep = cls(cfg, np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0]), rows)
    return rep, rep.run(), rows


# points whose engine run releases placements on a single-layer grid
RELEASING_ONE_LAYER = {"mini7_dynamic_harq_unicast_rho30"}
# points where a stretch of skipped slots reaches a known run from below
REACHING_RUNS_FROM_BELOW = {"mini4_dynamic_harq_unicast_rho30",
                            "mini7_dynamic_harq_unicast_rho30"}


class LookedUpSlots(dict):
    """A grid's slot table that lists the slots asked of `get`."""

    def __init__(self, slots):
        super().__init__(slots)
        self.looked_up = []

    def get(self, *args):
        self.looked_up.append(args[0])
        return super().get(*args)


@pytest.mark.parametrize("name", POINTS)
def test_engine_matches_reference_grid(name, monkeypatch):
    """Loaded points of every slot type, with repetitions, dynamic HARQ
    unicast and releases, on mini4 and on a single-layer mini7 grid: the
    reference replication's trace rows, counts, latency samples and
    utilisation equal the engine's bit for bit.  Every point makes requests
    whose first boundary lies in the grid's known run of slots that skip
    the request's width, which the scan starts past without looking up.
    On the dynamic HARQ unicast points, and only there, a scan's stretch of
    skipped slots also reaches the run from below: it jumps the run without
    looking up any of its slots, and the run's first slot moves down."""
    one_layer_releases = []
    in_run = []
    from_below = []
    release, allocate = SlotGrid.release, SlotGrid.allocate

    def counted_release(grid, *args, **kwargs):
        if 2 * grid.n_symbols > grid.region_len:
            one_layer_releases.append(args[0])
        return release(grid, *args, **kwargs)

    def counted_allocate(grid, n_rb, earliest_tick, *args, **kwargs):
        if not isinstance(grid._slots, LookedUpSlots):
            grid._slots = LookedUpSlots(grid._slots)
        run = grid._full_runs.get(n_rb)
        a, b = (0, 0) if run is None else run
        if a <= grid.alignment(earliest_tick) // grid.slot_ticks < b:
            in_run.append(earliest_tick)
        grid._slots.looked_up.clear()
        result = allocate(grid, n_rb, earliest_tick, *args, **kwargs)
        run = grid._full_runs.get(n_rb)
        if run is not None and run[0] < a and b <= run[1] and not any(
                a <= slot < b for slot in grid._slots.looked_up):
            from_below.append(earliest_tick)
        return result

    monkeypatch.setattr(SlotGrid, "release", counted_release)
    monkeypatch.setattr(SlotGrid, "allocate", counted_allocate)
    cfg = RunConfig(seed=1, **POINTS[name])
    rep, summary, rows = _replicate(engine._Replication, cfg)
    assert bool(one_layer_releases) == (name in RELEASING_ONE_LAYER), len(one_layer_releases)
    assert in_run
    assert bool(from_below) == (name in REACHING_RUNS_FROM_BELOW), len(from_below)
    ref, ref_summary, ref_rows = _replicate(ReferenceReplication, cfg)
    assert isinstance(ref._ul.grid, ReferenceGrid) and isinstance(ref._dl.grid, ReferenceGrid)
    assert len(rows) > 1000 and summary.n_dropped + summary.n_failed > 0
    assert rows == ref_rows
    assert rep._uls == ref._uls and rep._dls == ref._dls
    for name in ("n_generated", "n_delivered", "n_dropped", "n_failed", "n_unallocatable",
                 "util_ul", "util_dl"):
        assert getattr(summary, name) == getattr(ref_summary, name), name
    for name in ("total_ms", "ul_ms", "dl_ms"):
        assert getattr(summary, name).tobytes() == getattr(ref_summary, name).tobytes(), name
