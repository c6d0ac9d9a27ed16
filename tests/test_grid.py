"""Resource grid tests, checked against an exhaustive rectangle-search oracle."""

import random

import pytest

from nrv2x.grid import SlotGrid, _run_starts
from nrv2x.phy import ConfigurationError, ControlConfig, data_region, numerology, total_rbs

CTRL = ControlConfig(24, 1, 1, 1)


def make_grid(scs=30, n_rb=8, direction="UL", ctrl=CTRL):
    return SlotGrid(numerology(scs), n_rb, ctrl, direction)


# --- independent oracle -------------------------------------------------------

def oracle_first_fit(committed, n_rb, n_symbols, earliest_tick, grid, full_slot,
                     repeats=1, max_slots=64):
    """Enumerate every candidate rectangle in (slot, symbol, RB) order and
    return the first that does not overlap any committed rectangle."""
    starts = grid.start_symbols(n_symbols, full_slot)
    for slot in range(earliest_tick // grid.slot_ticks, earliest_tick // grid.slot_ticks + max_slots):
        for sym in starts:
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
    g = make_grid()
    # ready exactly on an admissible boundary -> zero wait
    tick = 5 * g.slot_ticks
    assert g.alignment(tick, g.region_len, True) == tick
    # worst case bounded by the slot duration for every offset
    for off in range(0, g.slot_ticks, 7):
        ready = 3 * g.slot_ticks + off
        for n_sym, full in ((g.region_len, True), (7, False), (4, False)):
            b = g.alignment(ready, n_sym, full)
            assert 0 <= b - ready <= g.slot_ticks


def test_alignment_matches_enumeration():
    """Derived check: enumerate every tick offset over one frame against a
    straight-line boundary calculator."""
    g = make_grid(scs=30, n_rb=4)
    starts = g.start_symbols(7, False)
    boundaries = sorted(
        s * g.slot_ticks + sym * g.symbol_ticks for s in range(22) for sym in starts
    )
    for ready in range(0, 20 * g.slot_ticks, 3):
        expected = next(b for b in boundaries if b >= ready)
        assert g.alignment(ready, 7, False) == expected


def test_empty_grid_zero_wait():
    g = make_grid()
    p, boundary = g.allocate(4, g.region_len, 2 * g.slot_ticks, True)
    assert p is not None
    assert p.start_tick == boundary == 2 * g.slot_ticks
    assert p.rb_start == 0


def test_occupied_slots_lower_bound():
    g = make_grid(n_rb=4)
    # fill the next 3 slots completely
    for s in range(3):
        p, _ = g.allocate(4, g.region_len, s * g.slot_ticks, True)
        assert p is not None and p.slot_idx == s
    p, boundary = g.allocate(1, g.region_len, 0, True)
    assert p.start_tick - boundary >= 3 * g.slot_ticks


def test_first_fit_matches_bruteforce_randomised():
    rng = random.Random(3)
    for case in range(300):
        g = make_grid(scs=30, n_rb=4)
        committed = []
        for _ in range(rng.randint(0, 6)):
            n_rb = rng.randint(1, 4)
            n_sym = rng.randint(1, 6)
            earliest = rng.randint(0, 2 * g.slot_ticks)
            p, _ = g.allocate(n_rb, n_sym, earliest, False)
            committed.append(
                dict(slot=p.slot_idx, sym=p.sym_start, n_sym=p.n_symbols,
                     rb=p.rb_start, n_rb=p.n_rb, repeats=1)
            )
        n_rb = rng.randint(1, 4)
        n_sym = rng.randint(1, 6)
        earliest = rng.randint(0, 2 * g.slot_ticks)
        expected = oracle_first_fit(committed, n_rb, n_sym, earliest, g, False)
        p, _ = g.allocate(n_rb, n_sym, earliest, False)
        assert (p.slot_idx, p.sym_start, p.rb_start) == expected, f"case {case}"


def test_repeats_need_consecutive_slots():
    g = make_grid(n_rb=4)
    # occupy all of slot 1 so a 2-repeat burst cannot straddle it
    g.allocate(4, g.region_len, 1 * g.slot_ticks, True)
    p, _ = g.allocate(2, g.region_len, 0, True, repeats=2)
    assert p.slot_idx == 2
    assert p.tx_end_tick == 3 * g.slot_ticks + g.region_len * g.symbol_ticks
    # both repeat slots are charged
    assert g.used_area_in(2 * g.slot_ticks, 4 * g.slot_ticks) == 2 * 2 * g.region_len


def test_no_overlap_invariant_random_ops():
    rng = random.Random(17)
    g = make_grid(scs=60, n_rb=6)
    placements = []
    for _ in range(200):
        n_rb = rng.randint(1, 6)
        n_sym = rng.randint(1, g.region_len)
        p, _ = g.allocate(n_rb, n_sym, rng.randint(0, 6 * g.slot_ticks), False,
                          repeats=rng.choice((1, 1, 1, 2)))
        placements.append(p)
    seen = set()
    for p in placements:
        for r in range(p.repeats):
            for sym in range(p.sym_start, p.sym_start + p.n_symbols):
                for rb in range(p.rb_start, p.rb_start + p.n_rb):
                    cell = (p.slot_idx + r, sym, rb)
                    assert cell not in seen
                    seen.add(cell)
    # conservation: total used area equals sum of committed rectangles
    total = sum(p.repeats * p.n_rb * p.n_symbols for p in placements)
    assert g.used_area_in(0, 10_000 * g.slot_ticks) == total


def test_deadline_prevents_commit():
    g = make_grid(n_rb=4)
    g.allocate(4, g.region_len, 0, True)  # slot 0 full
    deadline = 1 * g.slot_ticks  # nothing can finish before slot 0 ends
    p, boundary = g.allocate(1, g.region_len, 0, True, max_tx_end_tick=deadline)
    assert p is None
    assert boundary == 0
    assert g.used_area_in(g.slot_ticks, 3 * g.slot_ticks) == 0


def test_release_and_utilization():
    g = make_grid(n_rb=4)
    p, _ = g.allocate(2, g.region_len, 0, True)
    window = (0, 4 * g.slot_ticks)
    assert g.utilization(*window) == pytest.approx(2 * g.region_len / (4 * 4 * g.region_len))
    g.release(p)
    assert g.utilization(*window) == 0.0
    # fully packed slot -> utilization 1 over that slot
    g.allocate(4, g.region_len, 0, True)
    assert g.utilization(0, g.slot_ticks) == 1.0


def test_release_expired_counts():
    g = make_grid(n_rb=4)
    for s in range(4):
        g.allocate(1, g.region_len, s * g.slot_ticks, True)
    assert g.release_expired(0) == 0
    assert g.release_expired(2 * g.slot_ticks) == 2
    assert g.release_expired(10 * g.slot_ticks) == 2
    # metrics retained after release
    assert g.used_area_in(0, 4 * g.slot_ticks) == 4 * g.region_len


def test_full_slot_rejects_partial_length():
    g = make_grid()
    with pytest.raises(ConfigurationError):
        g.allocate(1, 7, 0, True)
    with pytest.raises(ConfigurationError):
        g.allocate(g.n_rb + 1, g.region_len, 0, True)
    with pytest.raises(ConfigurationError):
        g.start_symbols(g.region_len + 1, False)


def test_first_fit_deterministic():
    def run():
        g = make_grid(n_rb=8)
        out = []
        for i in range(50):
            p, b = g.allocate(1 + i % 3, 4, (i * 37) % (3 * g.slot_ticks), False)
            out.append((p.slot_idx, p.sym_start, p.rb_start, b))
        return out

    assert run() == run()


def test_reservation_trace():
    trace = []
    from nrv2x.phy import numerology
    from nrv2x.grid import SlotGrid
    g = SlotGrid(numerology(30), 4, CTRL, "UL", trace=trace)
    g.allocate(2, 4, 0, False, owner="pkt-7")
    g.allocate(1, g.region_len, 0, True, repeats=2, owner="pkt-8")
    assert trace[0][:3] == (0, 0, 2) and trace[0][5] == "pkt-7"
    assert len(trace) == 3  # the two-repeat burst logs both slots


# --- "cannot fit" memo ----------------------------------------------------------

class _OracleGrid:
    """Cell-set model of one direction, independent of SlotGrid's masks and
    memo: brute-force first fit with the deadline and scan-limit rules of
    `SlotGrid.allocate`, plus its release and expiry bookkeeping."""

    def __init__(self, grid):
        self.g = grid
        self.cells = set()          # (slot, symbol, rb)
        self.touched = set()        # slots committed to since they last expired
        self.released_before = 0

    def _cells(self, slot, sym, n_sym, rb, n_rb):
        return {(slot, s, b) for s in range(sym, sym + n_sym) for b in range(rb, rb + n_rb)}

    def allocate(self, n_rb, n_symbols, earliest_tick, full_slot, repeats=1,
                 max_tx_end_tick=None, scan_limit_slots=100_000):
        g = self.g
        starts = g.start_symbols(n_symbols, full_slot)
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
        self.cells = {c for c in self.cells if c[0] not in stale}
        self.touched -= stale
        if stale:
            self.released_before = max(self.released_before, max(stale) + 1)
        return len(stale)


def test_memo_matches_oracle_random_ops():
    """Random calls on small, dense grids: every result, placement and first
    boundary alike, equals the memo-free oracle's."""
    rng = random.Random(11)
    n_allocs = n_misses = 0
    for case in range(40):
        g = make_grid(scs=rng.choice((15, 30, 60)), n_rb=rng.randint(2, 5),
                      direction=rng.choice(("UL", "DL")))
        oracle = _OracleGrid(g)
        live = []
        now = 0
        for op in range(150):
            u = rng.random()
            if u < 0.7:
                full = rng.random() < 0.3
                n_sym = g.region_len if full else rng.randint(1, g.region_len)
                earliest = max(0, now + rng.randint(-g.slot_ticks, 3 * g.slot_ticks))
                kwargs = dict(
                    repeats=rng.choice((1, 1, 1, 2, 3)),
                    max_tx_end_tick=(None if rng.random() < 0.3
                                     else earliest + rng.randint(0, 6 * g.slot_ticks)),
                    scan_limit_slots=rng.choice((1, 2, 3, 5, 100_000)),
                )
                args = (rng.randint(1, g.n_rb), n_sym, earliest, full)
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
    # the sequences are dense enough to reject often
    assert n_misses > n_allocs // 10


def test_release_clears_memo():
    """A request rejected in a slot fits there once a placement is released."""
    g = make_grid(n_rb=4)
    full, _ = g.allocate(4, g.region_len, 0, True)
    deadline = g.slot_ticks + g.region_start * g.symbol_ticks  # only slot 0 ends in time
    rejected = g.allocate(1, g.region_len, 0, True, max_tx_end_tick=deadline)
    assert rejected == (None, full.start_tick)
    g.release(full)
    p, _ = g.allocate(1, g.region_len, 0, True, max_tx_end_tick=deadline)
    assert (p.slot_idx, p.rb_start) == (0, 0)


def test_memo_skips_rejected_slot_without_probing(monkeypatch):
    g = make_grid(scs=60, n_rb=4)
    for sym in range(g.region_start, g.region_start + g.region_len):
        g.allocate(3, 1, sym * g.symbol_ticks, False)  # one RB free per symbol
    probes = []
    fit = SlotGrid._fit

    def counting_fit(self, slot, *args):
        probes.append(slot)
        return fit(self, slot, *args)

    monkeypatch.setattr(SlotGrid, "_fit", counting_fit)
    p, _ = g.allocate(2, 4, 0, False)
    assert p.slot_idx == 1 and probes.count(0) == len(g.start_symbols(4, False))
    probes.clear()
    p, _ = g.allocate(3, 4, 0, False)   # wider than the rejected request
    assert p.slot_idx == 1 and 0 not in probes



# --- packed occupancy -----------------------------------------------------------

def test_used_area_tracks_committed_rectangles():
    """Used area and utilization equal the committed rectangles' area through
    mixed bursts with repeats, an expiry, and releases after it."""
    g = make_grid(scs=30, n_rb=5)
    counted = {}  # slot -> area committed and not released while live

    def check():
        for start, end in ((0, 8 * g.slot_ticks), (g.slot_ticks // 2, 3 * g.slot_ticks + 5),
                           (g.slot_ticks, 2 * g.slot_ticks), (3 * g.slot_ticks, 8 * g.slot_ticks)):
            first, last = -(-start // g.slot_ticks), end // g.slot_ticks
            expected = sum(a for s, a in counted.items() if first <= s < last)
            assert g.used_area_in(start, end) == expected
            assert g.utilization(start, end) == expected / ((last - first) * g.n_rb * g.region_len)

    placements = []
    for n_rb, n_sym, earliest, full, repeats in (
        (2, g.region_len, 0, True, 2),
        (3, 4, 0, False, 1),
        (1, 7, g.slot_ticks // 3, False, 2),
        (2, 4, g.slot_ticks, False, 2),
        (5, g.region_len, 2 * g.slot_ticks, True, 1),
        (4, 2, 2 * g.slot_ticks, False, 2),
        (2, g.region_len, 0, True, 2),
    ):
        p, _ = g.allocate(n_rb, n_sym, earliest, full, repeats=repeats)
        placements.append(p)
        for r in range(p.repeats):
            counted[p.slot_idx + r] = counted.get(p.slot_idx + r, 0) + p.n_rb * p.n_symbols
        check()
    assert g.release_expired(2 * g.slot_ticks) == 2  # slots 0 and 1
    check()
    expired = [p for p in placements if p.slot_idx + p.repeats <= 2]
    straddling = [p for p in placements if p.slot_idx < 2 < p.slot_idx + p.repeats]
    assert len(expired) == 3 and len(straddling) == 1
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
    symbol, RB 0 of the first) stay in their symbol's field."""
    n_rb, scs = _widest_carrier()
    g = SlotGrid(numerology(scs), n_rb, CTRL, direction)
    longest = max(len(data_region(numerology(s), d, CTRL))
                  for s in (15, 30, 60) for d in ("UL", "DL"))
    assert g.region_len == longest
    first_tick = g.region_start * g.symbol_ticks
    last_tick = (g.region_start + g.region_len - 1) * g.symbol_ticks
    committed = []

    def place(req_rb, n_sym, earliest, full=False):
        expected = oracle_first_fit(committed, req_rb, n_sym, earliest, g, full, max_slots=4)
        p, _ = g.allocate(req_rb, n_sym, earliest, full)
        assert (p.slot_idx, p.sym_start, p.rb_start) == expected, (req_rb, n_sym, earliest)
        committed.append(dict(slot=p.slot_idx, sym=p.sym_start, n_sym=p.n_symbols,
                              rb=p.rb_start, n_rb=p.n_rb, repeats=1))
        return p

    filler = place(n_rb - 1, 1, last_tick)
    top = place(1, 1, last_tick)
    g.release(filler)
    committed.pop(0)
    bottom = place(1, 1, first_tick)
    assert (top.slot_idx, top.sym_start, top.rb_start) == (0, g.region_start + g.region_len - 1,
                                                           n_rb - 1)
    assert (bottom.slot_idx, bottom.sym_start, bottom.rb_start) == (0, g.region_start, 0)
    place(n_rb, 2, last_tick - g.symbol_ticks)      # the top RB blocks slot 0
    place(n_rb - 1, g.region_len, 0, full=True)     # both blocks narrow slot 0 to n_rb - 2
    fit = place(n_rb - 2, g.region_len, 0, full=True)
    assert (fit.slot_idx, fit.rb_start) == (0, 1)
    place(n_rb, 1, first_tick)
    place(n_rb - 1, g.region_len - 2, first_tick)
