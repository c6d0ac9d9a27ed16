"""Resource grid tests, checked against an exhaustive rectangle-search oracle."""

import itertools
import random

import numpy as np
import pytest

from nrv2x import engine
from nrv2x.engine import RunConfig
from nrv2x.grid import SlotGrid, _run_starts
from nrv2x.phy import ConfigurationError, ControlConfig, data_region, numerology, total_rbs

CTRL = ControlConfig(24, 1, 1, 1)


def make_grid(scs=30, n_rb=8, direction="UL", ctrl=CTRL, n_symbols=None):
    return SlotGrid(numerology(scs), n_rb, ctrl, direction, n_symbols)


def region_len(scs=30, direction="UL", ctrl=CTRL):
    return len(data_region(numerology(scs), direction, ctrl))


def random_grid(rng, n_rb, full_share):
    """A grid of a random numerology and direction whose bursts span the
    whole data region with probability `full_share`, else 1 to the
    region's length symbols."""
    scs, direction = rng.choice((15, 30, 60)), rng.choice(("UL", "DL"))
    n_sym = None if rng.random() < full_share else rng.randint(1, region_len(scs, direction))
    return make_grid(scs=scs, n_rb=n_rb, direction=direction, n_symbols=n_sym)


# --- independent oracle -------------------------------------------------------

def oracle_first_fit(committed, n_rb, earliest_tick, grid, repeats=1, max_slots=64):
    """Enumerate every candidate rectangle of the grid's burst length in
    (slot, symbol, RB) order and return the first that does not overlap any
    committed rectangle."""
    n_symbols = grid.n_symbols
    for slot in range(earliest_tick // grid.slot_ticks, earliest_tick // grid.slot_ticks + max_slots):
        for sym in grid.start_symbols:
            tick = slot * grid.slot_ticks + sym * grid.symbol_ticks
            if tick < earliest_tick:
                continue
            for rb in range(grid.n_rb - n_rb + 1):
                ok = True
                for r in range(repeats):
                    for c in committed:
                        if _overlaps(c, slot + r, sym, n_symbols, rb, n_rb):
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    return slot, sym, rb
    return None


def _overlaps(c, slot, sym, n_sym, rb, n_rb):
    for r in range(c["repeats"]):
        if c["slot"] + r != slot:
            continue
        if c["sym"] < sym + n_sym and sym < c["sym"] + c["n_sym"]:
            if c["rb"] < rb + n_rb and rb < c["rb"] + c["n_rb"]:
                return True
    return False


# --- unit behaviour -----------------------------------------------------------

def test_run_starts():
    assert _run_starts(0b0111, 3) == 0b0001
    assert _run_starts(0b0111, 4) == 0
    assert _run_starts(0b110110, 2) == 0b010010
    assert _run_starts((1 << 51) - 1, 51) == 1


def test_alignment_identity_and_bound():
    for n_sym in (None, 7, 4):
        g = make_grid(n_symbols=n_sym)
        # ready exactly on an admissible boundary -> zero wait
        tick = 5 * g.slot_ticks
        assert g.alignment(tick) == tick
        # worst case bounded by the slot duration for every offset
        for off in range(0, g.slot_ticks, 7):
            ready = 3 * g.slot_ticks + off
            b = g.alignment(ready)
            assert 0 <= b - ready <= g.slot_ticks


def test_alignment_matches_enumeration():
    """Derived check: enumerate every tick offset over one frame against a
    straight-line boundary calculator."""
    for n_sym in (None, 7, 4):
        g = make_grid(scs=30, n_rb=4, n_symbols=n_sym)
        boundaries = sorted(
            s * g.slot_ticks + sym * g.symbol_ticks for s in range(22) for sym in g.start_symbols
        )
        for ready in range(0, 20 * g.slot_ticks, 3):
            expected = next(b for b in boundaries if b >= ready)
            assert g.alignment(ready) == expected


def test_empty_grid_zero_wait():
    g = make_grid()
    p, boundary = g.allocate(4, 2 * g.slot_ticks)
    assert p is not None
    assert p.start_tick == boundary == 2 * g.slot_ticks
    assert p.rb_start == 0


def test_occupied_slots_lower_bound():
    g = make_grid(n_rb=4)
    # fill the next 3 slots completely
    for s in range(3):
        p, _ = g.allocate(4, s * g.slot_ticks)
        assert p is not None and p.slot_idx == s
    p, boundary = g.allocate(1, 0)
    assert p.start_tick - boundary >= 3 * g.slot_ticks


def test_first_fit_matches_bruteforce_randomised():
    rng = random.Random(3)
    for case in range(300):
        g = make_grid(scs=30, n_rb=4, n_symbols=rng.randint(1, 6))
        committed = []
        for _ in range(rng.randint(0, 6)):
            n_rb = rng.randint(1, 4)
            earliest = rng.randint(0, 2 * g.slot_ticks)
            p, _ = g.allocate(n_rb, earliest)
            committed.append(
                dict(slot=p.slot_idx, sym=p.sym_start, n_sym=p.n_symbols,
                     rb=p.rb_start, n_rb=p.n_rb, repeats=1)
            )
        n_rb = rng.randint(1, 4)
        earliest = rng.randint(0, 2 * g.slot_ticks)
        expected = oracle_first_fit(committed, n_rb, earliest, g)
        p, _ = g.allocate(n_rb, earliest)
        assert (p.slot_idx, p.sym_start, p.rb_start) == expected, f"case {case}"


def test_repeats_need_consecutive_slots():
    g = make_grid(n_rb=4)
    # occupy all of slot 1 so a 2-repeat burst cannot straddle it
    g.allocate(4, 1 * g.slot_ticks)
    p, _ = g.allocate(2, 0, repeats=2)
    assert p.slot_idx == 2
    assert p.tx_end_tick == 3 * g.slot_ticks + g.region_len * g.symbol_ticks
    # both repeat slots are charged
    assert g.used_area_in(2 * g.slot_ticks, 4 * g.slot_ticks) == 2 * 2 * g.region_len


def test_no_overlap_invariant_random_ops():
    """Random requests, each on the grid of its burst length: no cell of a
    grid is committed twice, and its used area is its rectangles' area."""
    rng = random.Random(17)
    grids = {n: make_grid(scs=60, n_rb=6, n_symbols=n) for n in range(1, region_len(60) + 1)}
    placements = {n: [] for n in grids}
    for _ in range(200):
        n_rb = rng.randint(1, 6)
        n_sym = rng.randint(1, len(grids))
        g = grids[n_sym]
        p, _ = g.allocate(n_rb, rng.randint(0, 6 * g.slot_ticks),
                          repeats=rng.choice((1, 1, 1, 2)))
        placements[n_sym].append(p)
    for n_sym, g in grids.items():
        seen = set()
        for p in placements[n_sym]:
            for r in range(p.repeats):
                for sym in range(p.sym_start, p.sym_start + p.n_symbols):
                    for rb in range(p.rb_start, p.rb_start + p.n_rb):
                        cell = (p.slot_idx + r, sym, rb)
                        assert cell not in seen
                        seen.add(cell)
        # conservation: total used area equals sum of committed rectangles
        total = sum(p.repeats * p.n_rb * p.n_symbols for p in placements[n_sym])
        assert g.used_area_in(0, 10_000 * g.slot_ticks) == total


def test_deadline_prevents_commit():
    g = make_grid(n_rb=4)
    g.allocate(4, 0)  # slot 0 full
    deadline = 1 * g.slot_ticks  # nothing can finish before slot 0 ends
    p, boundary = g.allocate(1, 0, max_tx_end_tick=deadline)
    assert p is None
    assert boundary == 0
    assert g.used_area_in(g.slot_ticks, 3 * g.slot_ticks) == 0


def test_release_and_utilization():
    g = make_grid(n_rb=4)
    p, _ = g.allocate(2, 0)
    window = (0, 4 * g.slot_ticks)
    assert g.utilization(*window) == pytest.approx(2 * g.region_len / (4 * 4 * g.region_len))
    g.release(p)
    assert g.utilization(*window) == 0.0
    # fully packed slot -> utilization 1 over that slot
    g.allocate(4, 0)
    assert g.utilization(0, g.slot_ticks) == 1.0


def test_release_expired_counts():
    g = make_grid(n_rb=4)
    for s in range(4):
        g.allocate(1, s * g.slot_ticks)
    assert g.release_expired(0) == 0
    assert g.release_expired(2 * g.slot_ticks) == 2
    assert g.release_expired(10 * g.slot_ticks) == 2
    # metrics retained after release
    assert g.used_area_in(0, 4 * g.slot_ticks) == 4 * g.region_len


def test_grid_rejects_bursts_it_cannot_hold():
    g = make_grid()
    assert g.n_symbols == g.region_len and g.start_symbols == (g.region_start,)
    for n_sym in (g.region_len + 1, 0):
        with pytest.raises(ConfigurationError):
            make_grid(n_symbols=n_sym)
    for n_rb, repeats in ((g.n_rb + 1, 1), (0, 1), (-1, 1), (2, 0), (2, -1)):
        with pytest.raises(ConfigurationError):
            g.allocate(n_rb, 0, repeats=repeats)
    for scan_limit in (0, -5):
        with pytest.raises(ConfigurationError):
            g.allocate(2, 0, scan_limit_slots=scan_limit)
    assert g.used_area_in(0, 4 * g.slot_ticks) == 0


def test_first_fit_deterministic():
    def run():
        g = make_grid(n_rb=8, n_symbols=4)
        out = []
        for i in range(50):
            p, b = g.allocate(1 + i % 3, (i * 37) % (3 * g.slot_ticks))
            out.append((p.slot_idx, p.sym_start, p.rb_start, b))
        return out

    assert run() == run()


# --- "cannot fit" memo ----------------------------------------------------------

class _OracleGrid:
    """Cell-set model of one direction, independent of SlotGrid's masks and
    memo: brute-force first fit of the grid's burst length with the
    deadline and scan-limit rules of `SlotGrid.allocate`, plus its release
    and expiry bookkeeping and the used area it keeps of expired slots."""

    def __init__(self, grid):
        self.g = grid
        self.cells = set()          # (slot, symbol, rb)
        self.touched = set()        # slots committed to since they last expired
        self.used = {}              # slot -> cells it held when it expired
        self.released_before = 0

    def _cells(self, slot, sym, n_sym, rb, n_rb):
        return {(slot, s, b) for s in range(sym, sym + n_sym) for b in range(rb, rb + n_rb)}

    def allocate(self, n_rb, earliest_tick, repeats=1, max_tx_end_tick=None,
                 scan_limit_slots=100_000):
        g = self.g
        starts, n_symbols = g.start_symbols, g.n_symbols
        burst = n_symbols * g.symbol_ticks + (repeats - 1) * g.slot_ticks
        first_boundary = -1
        slot0 = earliest_tick // g.slot_ticks
        for slot in range(slot0, slot0 + scan_limit_slots):
            for sym in starts:
                tick = slot * g.slot_ticks + sym * g.symbol_ticks
                if tick < earliest_tick:
                    continue
                if first_boundary < 0:
                    first_boundary = tick
                if max_tx_end_tick is not None and tick + burst > max_tx_end_tick:
                    return None, first_boundary
                for rb in range(g.n_rb - n_rb + 1):
                    if all(self.cells.isdisjoint(self._cells(slot + r, sym, n_symbols, rb, n_rb))
                           for r in range(repeats)):
                        for r in range(repeats):
                            self.cells |= self._cells(slot + r, sym, n_symbols, rb, n_rb)
                            self.touched.add(slot + r)
                        return (slot, sym, rb), first_boundary
        if first_boundary < 0:
            first_boundary = min(
                t for slot in range(slot0, slot0 + 2) for sym in starts
                if (t := slot * g.slot_ticks + sym * g.symbol_ticks) >= earliest_tick
            )
        return None, first_boundary

    def release(self, p, not_before_tick=None):
        g = self.g
        for r in range(p.repeats):
            slot = p.slot_idx + r
            start = slot * g.slot_ticks + p.sym_start * g.symbol_ticks
            if slot < self.released_before or slot not in self.touched:
                continue
            if not_before_tick is not None and start < not_before_tick:
                continue
            self.cells -= self._cells(slot, p.sym_start, p.n_symbols, p.rb_start, p.n_rb)

    def release_expired(self, now_tick):
        horizon = now_tick // self.g.slot_ticks
        stale = {s for s in self.touched if s < horizon}
        for slot, _, _ in self.cells:
            if slot in stale:
                self.used[slot] = self.used.get(slot, 0) + 1
        self.cells = {c for c in self.cells if c[0] not in stale}
        self.touched -= stale
        if stale:
            self.released_before = max(self.released_before, max(stale) + 1)
        return len(stale)

    def used_area_in(self, start_tick, end_tick):
        first, last = -(-start_tick // self.g.slot_ticks), end_tick // self.g.slot_ticks
        return (sum(a for slot, a in self.used.items() if first <= slot < last)
                + sum(first <= slot < last for slot, _, _ in self.cells))


WHOLE = (0, 10**9)   # ticks: every slot the random operations reach


def test_memo_matches_oracle_random_ops():
    """Random calls on small, dense grids: every result, placement and first
    boundary alike, and the used area over the whole horizon after every
    call equal the memo-free oracle's."""
    rng = random.Random(11)
    n_allocs = n_misses = 0
    for case in range(40):
        g = random_grid(rng, rng.randint(2, 5), full_share=0.3)
        oracle = _OracleGrid(g)
        live = []
        now = 0
        for op in range(150):
            u = rng.random()
            if u < 0.7:
                earliest = max(0, now + rng.randint(-g.slot_ticks, 3 * g.slot_ticks))
                kwargs = dict(
                    repeats=rng.choice((1, 1, 1, 2, 3)),
                    max_tx_end_tick=(None if rng.random() < 0.3
                                     else earliest + rng.randint(0, 6 * g.slot_ticks)),
                    scan_limit_slots=rng.choice((1, 2, 3, 5, 100_000)),
                )
                args = (rng.randint(1, g.n_rb), earliest)
                p, boundary = g.allocate(*args, **kwargs)
                got = None if p is None else (p.slot_idx, p.sym_start, p.rb_start)
                assert (got, boundary) == oracle.allocate(*args, **kwargs), (case, op)
                n_allocs += 1
                if p is None:
                    n_misses += 1
                else:
                    live.append(p)
            elif u < 0.9 and live:
                p = live.pop(rng.randrange(len(live)))
                not_before = (None if rng.random() < 0.5
                              else p.start_tick + rng.randint(-g.slot_ticks, 2 * g.slot_ticks))
                g.release(p, not_before)
                oracle.release(p, not_before)
            else:
                now += rng.randint(0, 2 * g.slot_ticks)
                assert g.release_expired(now) == oracle.release_expired(now)
            assert g.used_area_in(*WHOLE) == oracle.used_area_in(*WHOLE), (case, op)
    # the sequences are dense enough to reject often
    assert n_misses > n_allocs // 10


def test_region_long_fields_stay_equal_random_ops():
    """Random requests with 1-3 repeats and deadlines, releases with and
    without a not-before tick, and expiries on small single-layer grids:
    bursts longer than half the data region, full slots and mini7 among
    them, on every numerology and direction, with one or two control
    symbols.  After every operation each live slot's occupancy is one
    field, which stands for the OR of all of the slot's symbol fields, and
    every result and the used area over the whole horizon equal the
    oracle's."""
    rng = random.Random(29)
    counts = dict.fromkeys(("allocate", "release", "release_partly", "expire"), 0)
    shapes = set()
    for case in range(40):
        scs, direction = rng.choice((15, 30, 60)), rng.choice(("UL", "DL"))
        ctrl = rng.choice((CTRL, ControlConfig(24, 2, 1, 2)))
        n_sym = rng.randint(region_len(scs, direction, ctrl) // 2 + 1,
                            region_len(scs, direction, ctrl))
        g = make_grid(scs=scs, n_rb=rng.randint(2, 6), direction=direction, ctrl=ctrl,
                      n_symbols=n_sym)
        assert 2 * g.n_symbols > g.region_len
        shapes.add((g.region_len, len(g.start_symbols) > 1))
        oracle = _OracleGrid(g)
        live = []
        now = 0
        for op in range(120):
            u = rng.random()
            if u < 0.65:
                earliest = max(0, now + rng.randint(-g.slot_ticks, 3 * g.slot_ticks))
                args = (rng.randint(1, g.n_rb), earliest)
                kwargs = dict(repeats=rng.randint(1, 3),
                              max_tx_end_tick=(None if rng.random() < 0.5
                                               else earliest + rng.randint(0, 5 * g.slot_ticks)))
                p, boundary = g.allocate(*args, **kwargs)
                got = None if p is None else (p.slot_idx, p.sym_start, p.rb_start)
                assert (got, boundary) == oracle.allocate(*args, **kwargs), (case, op)
                counts["allocate"] += 1
                if p is not None:
                    live.append(p)
            elif u < 0.9 and live:
                p = live.pop(rng.randrange(len(live)))
                not_before = (None if rng.random() < 0.5
                              else p.start_tick + rng.randint(-g.slot_ticks, 2 * g.slot_ticks))
                g.release(p, not_before)
                oracle.release(p, not_before)
                counts["release" if not_before is None else "release_partly"] += 1
            else:
                now += rng.randint(0, 2 * g.slot_ticks)
                assert g.release_expired(now) == oracle.release_expired(now)
                counts["expire"] += 1
            for idx, s in g._slots.items():
                assert 0 <= s.occ < 1 << g.n_rb, (case, op, idx)
            assert g.used_area_in(*WHOLE) == oracle.used_area_in(*WHOLE), (case, op)
    assert counts["allocate"] > 2000 and min(counts.values()) > 100, counts
    # full slots and several starts per slot, on regions of 10 to 13 symbols
    assert {n for n, _ in shapes} == {10, 11, 12, 13} and {m for _, m in shapes} == {False, True}


def test_half_region_bursts_keep_their_symbol_fields():
    """A burst of exactly half an even data region has two windows that
    share no symbol: a grid whose first window is full on every RB still
    places a request at its last start, at RB 0 of the same slot, as the
    oracle does.  One symbol longer, the last window meets the full one."""
    ctrl = ControlConfig(24, 2, 1, 1)   # a 12-symbol downlink data region
    for n_sym, slot in ((6, 0), (7, 1)):
        g = make_grid(scs=15, n_rb=4, direction="DL", ctrl=ctrl, n_symbols=n_sym)
        assert g.region_len == 12
        oracle = _OracleGrid(g)
        for args in ((4, 0), (1, g.start_symbols[-1] * g.symbol_ticks)):
            p, boundary = g.allocate(*args)
            assert ((p.slot_idx, p.sym_start, p.rb_start), boundary) == oracle.allocate(*args)
        assert (p.slot_idx, p.rb_start) == (slot, 0), n_sym


def test_release_clears_memo():
    """A request rejected in a slot fits there once a placement is released."""
    g = make_grid(n_rb=4)
    full, _ = g.allocate(4, 0)
    deadline = g.slot_ticks + g.region_start * g.symbol_ticks  # only slot 0 ends in time
    rejected = g.allocate(1, 0, max_tx_end_tick=deadline)
    assert rejected == (None, full.start_tick)
    g.release(full)
    p, _ = g.allocate(1, 0, max_tx_end_tick=deadline)
    assert (p.slot_idx, p.rb_start) == (0, 0)


def _recorded_probes(monkeypatch):
    """The slot of every `SlotGrid._fit` call from now on, in call order."""
    probes = []
    fit = SlotGrid._fit

    def counting_fit(self, slot, *args):
        probes.append(slot)
        return fit(self, slot, *args)

    monkeypatch.setattr(SlotGrid, "_fit", counting_fit)
    return probes


def test_memo_skips_rejected_slot_without_probing(monkeypatch):
    probes = _recorded_probes(monkeypatch)
    for n_sym in range(1, region_len(60) + 1):
        g = make_grid(scs=60, n_rb=5, n_symbols=n_sym)
        # bursts back to back in slot 0 on RBs 1 and 3: every window keeps
        # three free RBs, none adjacent, so only the memo rejects it unprobed
        for sym in g.start_symbols[::n_sym]:
            placed = [g.allocate(1, sym * g.symbol_ticks)[0] for _ in range(5)]
            assert [(p.slot_idx, p.sym_start, p.rb_start) for p in placed] == [
                (0, sym, rb) for rb in range(5)]
            for p in placed[::2]:
                g.release(p)
        probes.clear()
        p, _ = g.allocate(2, 0)
        # one probe decides a slot whose windows all share a symbol
        decisive = 1 if 2 * n_sym > g.region_len else len(g.start_symbols)
        assert p.slot_idx == 1 and probes.count(0) == decisive, n_sym
        probes.clear()
        p, _ = g.allocate(3, 0)   # wider than the rejected request
        assert p.slot_idx == 1 and 0 not in probes, n_sym


# --- saturated runs -------------------------------------------------------------

def _fill(g, slot, n_rb):
    """Commit n_rb-wide bursts back to back from the region's first symbol
    of `slot`, each where first fit puts it: with n_rb the whole carrier,
    every window of a slot empty before meets one of them."""
    for sym in g.start_symbols[::g.n_symbols]:
        g.allocate(n_rb, slot * g.slot_ticks + sym * g.symbol_ticks)


def test_saturated_runs_match_oracle_random_ops():
    """Long stretches of full or nearly full slots, then requests whose
    deadlines fall before, inside or past a stretch and whose scan limits end
    inside it, mixed with releases inside a stretch and expiries cutting it:
    every result equals the oracle's, and scans do jump over long runs."""
    rng = random.Random(5)
    longest_run = 0
    for case in range(10):
        g = random_grid(rng, rng.randint(2, 5), full_share=0.3)
        oracle = _OracleGrid(g)
        live = []
        now = 0

        def allocate(*args, **kwargs):
            p, boundary = g.allocate(*args, **kwargs)
            got = None if p is None else (p.slot_idx, p.sym_start, p.rb_start)
            assert (got, boundary) == oracle.allocate(*args, **kwargs), (case, args, kwargs)
            if p is not None:
                live.append(p)

        for _ in range(2):
            first = now // g.slot_ticks + rng.randint(0, 3)
            length = rng.randint(40, 120)
            for slot in range(first, first + length):
                # a slot with one RB left still rejects every wider request
                width = g.n_rb - (rng.random() < 0.3)
                for sym in g.start_symbols[::g.n_symbols]:
                    allocate(width, slot * g.slot_ticks + sym * g.symbol_ticks)
            for op in range(50):
                u = rng.random()
                if u < 0.8:
                    earliest = max(0, (first + rng.randint(-2, 4)) * g.slot_ticks
                                   + rng.randint(0, g.slot_ticks - 1))
                    deadline_slot = rng.choice((None, first + 1, first + rng.randint(2, length),
                                                first + length + rng.randint(0, 3)))
                    limit_slot = rng.choice((None, first + rng.randint(1, length)))
                    kwargs = dict(
                        repeats=rng.randint(1, 3),
                        max_tx_end_tick=(None if deadline_slot is None
                                         else deadline_slot * g.slot_ticks
                                         + rng.randint(0, g.slot_ticks - 1)),
                        scan_limit_slots=(100_000 if limit_slot is None
                                          else max(1, limit_slot - earliest // g.slot_ticks)),
                    )
                    allocate(rng.randint(1, g.n_rb), earliest, **kwargs)
                    longest_run = max([longest_run] + [b - a for a, b in g._full_runs.values()])
                elif u < 0.9:
                    inside = [p for p in live if first <= p.slot_idx < first + length]
                    if inside:
                        p = inside[rng.randrange(len(inside))]
                        live.remove(p)
                        g.release(p)
                        oracle.release(p)
                else:
                    now = max(now, (first + rng.randint(0, length)) * g.slot_ticks)
                    assert g.release_expired(now) == oracle.release_expired(now)
    assert longest_run >= 40


def test_requests_from_known_runs_match_oracle_random_ops():
    """After scans have walked saturated stretches of dense full, mini7 and
    mini4 grids, requests of 1 to 4 repeats whose first boundary lies inside
    a known run, at its last slot, one slot before it or at its end, mixed
    with releases, which clear the runs, and expiries, which clip them:
    every result equals the oracle's, no run ends past the grid's bound on
    run ends, and many requests start inside a run."""
    rng = random.Random(23)
    counts = dict.fromkeys(("in_run", "before_run", "release", "expire"), 0)
    for case in range(12):
        g = make_grid(scs=rng.choice((15, 30, 60)), n_rb=rng.randint(2, 5),
                      direction=rng.choice(("UL", "DL")), n_symbols=(None, 7, 4)[case % 3])
        oracle = _OracleGrid(g)
        live = []
        now = first = 0

        def allocate(n_rb, earliest, **kwargs):
            slot = g.alignment(earliest) // g.slot_ticks
            run = g._full_runs.get(n_rb, (0, 0))
            counts["in_run"] += run[0] <= slot < run[1]
            counts["before_run"] += slot == run[0] - 1
            p, boundary = g.allocate(n_rb, earliest, **kwargs)
            got = None if p is None else (p.slot_idx, p.sym_start, p.rb_start)
            assert (got, boundary) == oracle.allocate(n_rb, earliest, **kwargs), (
                case, n_rb, earliest, kwargs)
            assert all(b <= g._runs_end for _, b in g._full_runs.values())
            if p is not None:
                live.append(p)

        for _ in range(3):
            first = max(first, now // g.slot_ticks) + rng.randint(0, 3)
            length = rng.randint(15, 40)
            for slot in range(first, first + length):
                width = g.n_rb - (rng.random() < 0.3)
                for sym in g.start_symbols[::g.n_symbols]:
                    allocate(width, slot * g.slot_ticks + sym * g.symbol_ticks)
            # walk the stretch once for every width
            for n_rb in range(1, g.n_rb + 1):
                allocate(n_rb, first * g.slot_ticks, scan_limit_slots=length)
            for op in range(40):
                u = rng.random()
                if u < 0.8 and g._full_runs:
                    n_rb, (a, b) = rng.choice(sorted(g._full_runs.items()))
                    if rng.random() < 0.3:
                        n_rb = rng.randint(1, g.n_rb)
                    slot = rng.choice((rng.randrange(a, b), b - 1, a - 1, b))
                    earliest = max(0, slot * g.slot_ticks + rng.randrange(g.slot_ticks))
                    deadline_slot = rng.choice((None, slot + 1, b, b + rng.randint(1, 4)))
                    kwargs = dict(
                        repeats=rng.randint(1, 4),
                        max_tx_end_tick=(None if deadline_slot is None
                                         else deadline_slot * g.slot_ticks
                                         + rng.randrange(g.slot_ticks)),
                        scan_limit_slots=rng.choice((100_000, 1, max(1, b - slot), b - slot + 2)),
                    )
                    allocate(n_rb, earliest, **kwargs)
                elif u < 0.9 and live:
                    p = live.pop(rng.randrange(len(live)))
                    g.release(p)
                    oracle.release(p)
                    counts["release"] += 1
                else:
                    now = max(now, (first + rng.randint(0, length)) * g.slot_ticks)
                    assert g.release_expired(now) == oracle.release_expired(now)
                    counts["expire"] += 1
    assert min(counts.values()) > 40 and counts["in_run"] > 300, counts


class CountingSlots(dict):
    """A grid's slot table that counts the slot lookups of every scan and
    lists the slots looked up since `looked_up` was last emptied."""
    gets = 0
    looked_up = []

    def get(self, *args):
        CountingSlots.gets += 1
        CountingSlots.looked_up.append(args[0])
        return super().get(*args)


def test_known_run_is_jumped_not_walked():
    """Once a scan has walked a 200-slot saturated stretch, a request of the
    same width whose first boundary lies inside it looks up no slot of the
    run, its first boundary's slot included: it fails without a lookup when
    its scan ends inside the run, and is placed past the run's end after
    looking up only that slot.  A stretch that begins below a known run
    looks up its own slots, jumps from the run's first slot to its end
    without looking up a slot of the run, and extends the run down to the
    stretch's first slot."""
    for n_sym in range(1, region_len() + 1):
        g = make_grid(n_rb=8, n_symbols=n_sym)
        for slot in range(201):
            _fill(g, slot, 8)
        # 7 of 8 RBs over the burst exceed the free area any slot of the
        # stretch keeps, its symbols past the last back-to-back burst
        g._slots = CountingSlots(g._slots)
        CountingSlots.gets = 0
        request = (7, g.slot_ticks)
        first = g.allocate(*request, scan_limit_slots=200)
        assert first == (None, g.slot_ticks + g.region_start * g.symbol_ticks)
        assert CountingSlots.gets == 200 and g._full_runs[7] == [1, 201]
        CountingSlots.looked_up = []
        assert g.allocate(*request, scan_limit_slots=200) == first
        for inside, limit in ((100 * g.slot_ticks, 101), (200 * g.slot_ticks, 1)):
            assert g.allocate(7, inside, scan_limit_slots=limit) == (
                None, inside + g.region_start * g.symbol_ticks)
        assert CountingSlots.looked_up == []
        p, _ = g.allocate(7, inside)
        assert p.slot_idx == 201 and CountingSlots.looked_up == [201]
        # a scan whose deadline falls inside an unknown stretch stops walking there
        CountingSlots.gets = 0
        assert g.allocate(8, g.slot_ticks, max_tx_end_tick=11 * g.slot_ticks)[0] is None
        assert CountingSlots.gets <= 12
        assert g.allocate(6, 5 * g.slot_ticks, scan_limit_slots=196)[0] is None
        assert g._full_runs[6] == [5, 201]
        for n_rb, below in ((7, [0]), (6, [0, 1, 2, 3, 4])):
            CountingSlots.looked_up = []
            assert g.allocate(n_rb, 0, scan_limit_slots=201)[0] is None
            assert CountingSlots.looked_up == below and g._full_runs[n_rb] == [0, 201]


def _counted_run(cfg):
    """One replication of `cfg` whose grids count their slot lookups;
    returns its summary and the result of every `allocate` call."""
    rep = engine._Replication(
        cfg, np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0]))
    results = []

    def recorded(allocate):
        def call(*args, **kwargs):
            result = allocate(*args, **kwargs)
            results.append(result)
            return result
        return call

    for grid in (rep._ul.grid, rep._dl.grid):
        grid._slots = CountingSlots(grid._slots)
        grid.allocate = recorded(grid.allocate)
    CountingSlots.gets = 0
    return rep.run(), results


def test_overloaded_grid_scans_few_slots_per_allocation(monkeypatch):
    """On the overloaded 60 kHz mini7 point (criterion 8a's configuration on
    a 100 ms horizon), the saturated-run jump and the "cannot fit" memo keep
    first fit at a few slot lookups per `allocate` call: 1.33, against about
    34 with either of them disabled, for the same results, and 1.87 when a
    request whose first boundary lies inside a known run, as more than half
    of them do, looks that slot up before jumping.  The grid is
    single-layer, so a scan probes one start of each slot it visits, a
    slot with fewer free RBs than the request is skipped by their count,
    and a request that fits at its first boundary is placed without a
    probe.  No slot without a released hole is probed in vain: every probe
    places the request, about 0.46 probes per call, against 0.62 (965 of
    them misses) when a slot was skipped by its free area and 1.76 when
    every start of a slot was probed."""
    misses = []
    fit = SlotGrid._fit

    def missing_fit(self, slot, *args):
        rb = fit(self, slot, *args)
        if rb is None:
            misses.append(slot)
        return rb

    monkeypatch.setattr(SlotGrid, "_fit", missing_fit)
    probes = _recorded_probes(monkeypatch)
    cfg = RunConfig(scs_khz=60, slot_type="mini7", interval_ms=20.0,
                    density_veh_km_lane=60.0, horizon_ms=100.0, warmup_ms=40.0, seed=1)
    summary, results = _counted_run(cfg)
    assert summary.n_dropped > 0.2 * summary.n_generated   # the grid is overloaded
    calls = len(results)
    assert calls > 5000 and CountingSlots.gets <= 1.4 * calls
    assert probes and misses == []
    assert len(probes) <= 0.5 * calls


def test_full_slot_traffic_looks_each_slot_up_once(monkeypatch):
    """On the paper's typical sweep point (the `flat_load` benchmark's
    configuration on a short horizon) every allocation is placed at its
    first boundary, and each `allocate` call looks up exactly one slot: the
    one it commits into.  A scan that also visited the earliest tick's slot
    when that slot has no admissible start left, or that looked the slot up
    again to commit into it, would count more.  None of them enters the
    scan: the placement at the first boundary takes every one without a
    probe."""
    probes = _recorded_probes(monkeypatch)
    cfg = RunConfig(scs_khz=30, bandwidth_mhz=20, slot_type="full", scheduling="semi_static",
                    dl_cast="broadcast", mcs_table="LEP", traffic="periodic", interval_ms=20.0,
                    density_veh_km_lane=40.0, horizon_ms=200.0, warmup_ms=60.0, seed=1)
    _, results = _counted_run(cfg)
    assert len(results) > 5000
    assert all(p is not None and p.start_tick == boundary for p, boundary in results)
    assert CountingSlots.gets == len(results)
    assert probes == []


def test_first_boundary_placement_reaches_its_bounds(monkeypatch):
    """On full-slot grids of each numerology and direction, a burst that
    ends exactly at the deadline, and a boundary in the next slot that the
    scan limit of two slots just reaches, are both placed at the first
    boundary without a probe."""
    probes = _recorded_probes(monkeypatch)
    for scs, direction in itertools.product((15, 30, 60), ("UL", "DL")):
        g = make_grid(scs=scs, direction=direction)
        start = g.alignment(0)
        p, boundary = g.allocate(3, start, max_tx_end_tick=start + g.burst_ticks)
        assert (p.slot_idx, p.rb_start, boundary) == (0, 0, start)
        late = start + 1  # past slot 0's one start
        p, boundary = g.allocate(3, late, max_tx_end_tick=g.alignment(late) + g.burst_ticks,
                                 scan_limit_slots=2)
        assert (p.slot_idx, p.rb_start, p.start_tick) == (1, 0, boundary)
    assert probes == []


def test_mini7_first_boundary_between_starts(monkeypatch):
    """On mini7 grids of each numerology and direction, an earliest tick
    between two starts of a slot whose occupied RBs are RBs 0 to some RB:
    the request is placed at the next start, just above them, with one slot
    lookup and no probe.  A request wider than the slot's free RBs skips the
    slot, already in hand, by its count alone, unprobed.  A slot whose free
    RBs, left by releases, are enough in number but not adjacent is decided
    by one probe; its miss writes the memo, though the slot's earlier
    starts were skipped, and a later request from the slot's start skips
    the slot unprobed.  Every result equals the oracle's."""
    probes = _recorded_probes(monkeypatch)
    for scs, direction in itertools.product((15, 30, 60), ("UL", "DL")):
        def fresh_grid():
            g = make_grid(scs=scs, n_rb=6, direction=direction, n_symbols=7)
            assert 2 * g.n_symbols > g.region_len and len(g.start_symbols) > 3
            g._slots = CountingSlots(g._slots)
            return g, _OracleGrid(g)

        def allocate(*args):
            CountingSlots.gets = 0
            probes.clear()
            p, boundary = g.allocate(*args)
            assert ((p.slot_idx, p.sym_start, p.rb_start), boundary) == oracle.allocate(*args)
            return p, boundary

        g, oracle = fresh_grid()
        between = g.start_symbols[1] * g.symbol_ticks + 1   # past the second start
        allocate(2, 0)
        p, boundary = allocate(3, between)
        assert (p.slot_idx, p.sym_start, p.rb_start) == (0, g.start_symbols[2], 2)
        assert p.start_tick == boundary and probes == [] and CountingSlots.gets == 1
        p, _ = allocate(2, between)   # one RB left in slot 0
        assert (p.slot_idx, p.sym_start) == (1, g.start_symbols[0])
        assert probes == [1] and CountingSlots.gets == 2
        p, _ = allocate(2, 0)
        assert p.slot_idx == 1 and 0 not in probes, (scs, direction)

        g, oracle = fresh_grid()
        placed = [allocate(2, 0)[0] for _ in range(3)]
        for p in placed[::2]:   # RBs 2 and 3 stay: four free RBs, no three adjacent
            g.release(p)
            oracle.release(p)
        p, _ = allocate(3, between)
        assert (p.slot_idx, p.sym_start) == (1, g.start_symbols[0]) and probes == [0, 1]
        assert g._slots[0].no_fit == 3
        p, _ = allocate(3, 0)
        assert p.slot_idx == 1 and probes == [1], (scs, direction)


def test_hole_at_first_boundary_is_placed_by_the_scan(monkeypatch):
    """A full-slot grid whose first boundary's slot has a released hole below
    its occupied RBs: the placement at the first boundary declines it, and
    the scan's one probe puts the request in the hole at its lowest RB."""
    probes = _recorded_probes(monkeypatch)
    g = make_grid(n_rb=8)
    low, _ = g.allocate(2, 0)
    g.allocate(3, 0)
    g.release(low)
    p, boundary = g.allocate(1, 0)
    assert (p.slot_idx, p.rb_start, p.start_tick) == (0, 0, boundary)
    assert probes == [0]


def test_scan_boundaries_match_oracle():
    """Every earliest tick across one slot, on full-slot, mini7 and mini4
    grids of each numerology and direction, empty or with the first two
    slots holding no room, with scan limits of 1 and 2 slots or none and
    deadlines that let the burst at the first boundary or at the next
    slot's first start end exactly in time, one tick early or one tick
    late: every result equals the oracle's.  A first slot with no
    admissible start left still counts toward the scan limit."""
    n_cases = n_limited = 0
    for scs, direction, n_sym, filled in itertools.product(
            (15, 30, 60), ("UL", "DL"), (None, 7, 4), (False, True)):
        g = make_grid(scs=scs, n_rb=3, direction=direction, n_symbols=n_sym)
        oracle = _OracleGrid(g)
        if filled:
            for slot in (1, 2):
                for sym in g.start_symbols[::g.n_symbols]:
                    request = (g.n_rb, slot * g.slot_ticks + sym * g.symbol_ticks)
                    g.allocate(*request)
                    oracle.allocate(*request)
        first_start = g.start_symbols[0] * g.symbol_ticks
        for earliest in range(g.slot_ticks, 2 * g.slot_ticks):
            boundary = g.alignment(earliest)
            next_start = (boundary // g.slot_ticks + 1) * g.slot_ticks + first_start
            deadlines = [None] + [start + g.burst_ticks + d
                                  for start in (boundary, next_start) for d in (-1, 0, 1)]
            for limit, deadline in itertools.product((1, 2, 100_000), deadlines):
                args = (2, earliest, 1, deadline, limit)
                p, got_boundary = g.allocate(*args)
                got = None if p is None else (p.slot_idx, p.sym_start, p.rb_start)
                assert (got, got_boundary) == oracle.allocate(*args), (
                    scs, direction, n_sym, filled, args)
                n_cases += 1
                if p is not None:
                    g.release(p)
                    oracle.release(p)
                elif limit == 1 and boundary >= 2 * g.slot_ticks:
                    n_limited += 1
    assert n_cases > 100_000 and n_limited > 1000


def test_expiry_clips_known_runs():
    """Slots dropped by an expiry leave the known run: a slot committed to
    again after it expired does not lead a scan into the dropped ones."""
    g = make_grid(n_rb=4)
    oracle = _OracleGrid(g)
    full = (4, 0)
    for slot in range(10):
        g.allocate(4, slot * g.slot_ticks)
        oracle.allocate(4, slot * g.slot_ticks)
    assert g.allocate(*full)[0].slot_idx == oracle.allocate(*full)[0][0] == 10
    assert g.release_expired(5 * g.slot_ticks) == oracle.release_expired(5 * g.slot_ticks)
    for _ in range(3):  # slots 0 and 1 again, then slot 2
        p, boundary = g.allocate(*full)
        assert ((p.slot_idx, p.sym_start, p.rb_start), boundary) == oracle.allocate(*full)
    assert p.slot_idx == 2



# --- packed occupancy -----------------------------------------------------------

def test_used_area_tracks_committed_rectangles():
    """Used area and utilization equal the committed rectangles' area through
    bursts with repeats, an expiry, and releases after it."""
    for n_sym in (None, 7, 4):
        g = make_grid(scs=30, n_rb=5, n_symbols=n_sym)
        counted = {}  # slot -> area committed and not released while live

        def check():
            for start, end in ((0, 8 * g.slot_ticks), (g.slot_ticks // 2, 3 * g.slot_ticks + 5),
                               (g.slot_ticks, 2 * g.slot_ticks),
                               (3 * g.slot_ticks, 8 * g.slot_ticks)):
                first, last = -(-start // g.slot_ticks), end // g.slot_ticks
                expected = sum(a for s, a in counted.items() if first <= s < last)
                assert g.used_area_in(start, end) == expected
                assert g.utilization(start, end) == (
                    expected / ((last - first) * g.n_rb * g.region_len))

        placements = []
        for n_rb, earliest, repeats in (
            (2, 0, 2),
            (3, 0, 1),
            (1, g.slot_ticks // 3, 2),
            (2, g.slot_ticks, 2),
            (5, 2 * g.slot_ticks, 1),
            (4, 2 * g.slot_ticks, 2),
            (2, 0, 2),
        ):
            p, _ = g.allocate(n_rb, earliest, repeats=repeats)
            placements.append(p)
            for r in range(p.repeats):
                counted[p.slot_idx + r] = counted.get(p.slot_idx + r, 0) + p.n_rb * p.n_symbols
            check()
        assert g.release_expired(2 * g.slot_ticks) == 2  # slots 0 and 1
        check()
        expired = [p for p in placements if p.slot_idx + p.repeats <= 2]
        straddling = [p for p in placements if p.slot_idx < 2 < p.slot_idx + p.repeats]
        assert len(expired) >= 1 and len(straddling) >= 1, n_sym
        for p in expired:
            g.release(p)
            check()
        for p in straddling:  # only its live slot is freed
            g.release(p)
            counted[2] -= p.n_rb * p.n_symbols
            check()


def _widest_carrier():
    widths = []
    for scs in (15, 30, 60):
        for bw in range(5, 101, 5):
            try:
                widths.append((total_rbs(bw, scs), scs))
            except ConfigurationError:
                pass
    return max(widths)


@pytest.mark.parametrize("direction", ["UL", "DL"])
def test_packed_fields_do_not_leak_on_widest_carrier(direction):
    """Blocks at the extreme bits of the packed occupancy (top RB of the last
    symbol, RB 0 of the first) stay in their symbol's field, for every burst
    length."""
    n_rb, scs = _widest_carrier()
    longest = max(len(data_region(numerology(s), d, CTRL))
                  for s in (15, 30, 60) for d in ("UL", "DL"))
    assert region_len(scs, direction) == longest
    for n_sym in range(1, longest + 1):
        g = SlotGrid(numerology(scs), n_rb, CTRL, direction, n_sym)
        first_tick = g.region_start * g.symbol_ticks
        last_start = g.start_symbols[-1]
        last_tick = last_start * g.symbol_ticks
        committed = []

        def place(req_rb, earliest):
            expected = oracle_first_fit(committed, req_rb, earliest, g, max_slots=8)
            p, _ = g.allocate(req_rb, earliest)
            assert (p.slot_idx, p.sym_start, p.rb_start) == expected, (n_sym, req_rb, earliest)
            committed.append(dict(slot=p.slot_idx, sym=p.sym_start, n_sym=p.n_symbols,
                                  rb=p.rb_start, n_rb=p.n_rb, repeats=1))
            return p

        filler = place(n_rb - 1, last_tick)
        top = place(1, last_tick)
        g.release(filler)
        committed.pop(0)
        bottom = place(1, first_tick)
        assert (top.slot_idx, top.sym_start, top.rb_start) == (0, last_start, n_rb - 1)
        assert top.sym_start + n_sym == g.region_start + g.region_len
        assert (bottom.slot_idx, bottom.sym_start, bottom.rb_start) == (0, g.region_start, 0)
        place(n_rb, last_tick)                 # the top RB blocks slot 0's last window
        place(n_rb - 1, first_tick)
        fit = place(n_rb - 2, first_tick)
        if n_sym == g.region_len:
            # both blocks narrow slot 0's one window to n_rb - 2 RBs
            assert (fit.slot_idx, fit.rb_start) == (0, 1)
        place(n_rb, first_tick)
        place(n_rb - 1, first_tick)
