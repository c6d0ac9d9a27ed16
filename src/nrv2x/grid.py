"""Per-direction RB x symbol occupancy emulation.

One SlotGrid owns the data region of every slot in one direction: control
symbols are excluded up front, data allocations are rectangles of consecutive
RBs x consecutive symbols inside a single slot's data region, and the
scheduler is first-fit in (slot, start symbol, start RB) order.

A grid serves one burst shape, fixed when it is built: ``n_symbols``
consecutive symbols, the whole data region (a full slot) by default.  Every
placement in it has that length, so its admissible start symbols, its burst
in ticks (`burst_ticks`, every placement's airtime) and the multiplier below
are constants of the grid.  A region-long burst has the single start at
the region's first symbol, whether the configuration calls it a full slot
or a mini-slot.

A live slot's occupancy is one python int.  Data-region symbol ``i``
(counted from the first data symbol) owns the ``n_rb``-bit field at bits
``[i * n_rb, (i + 1) * n_rb)``, and bit ``b`` of a field is RB ``b``, so the
lowest field is the earliest symbol and the lowest bit of a field the lowest
RB.  An RB mask repeated over the burst's ``n`` consecutive symbols is the
mask times ``rep = 1 + 2**n_rb + ... + 2**((n - 1) * n_rb)``; the mask fits
in one field, so the product has no carries and a commit or a release is a
single ``|=`` or ``&= ~``.  To probe a window, its fields are cut out and
folded onto the lowest one by ceil(log2 n) shift-ORs, each halving
(rounding up) the number of fields still to fold.  The lowest field then
holds every RB occupied in some symbol of the window, and the consecutive
free-RB search is a shift-and-AND run computation on its complement.

In a grid whose bursts span the whole data region no fold is needed.  Every
commit writes the placement's RB mask into every symbol field of its slots,
and every release clears it from every field, so all fields of a live slot
are equal.  The fold of a window, which is all of them, is then its lowest
field, and a probe reads one ``n_rb``-bit mask per slot.

Each live slot also keeps a "cannot fit" memo, one int: the fewest RBs
known not to fit in any admissible window of that slot.  A first-fit scan
that probed every start symbol of a slot and found no room records its
request there.  Later scans skip such a slot without probing it, as they
skip a slot whose free area is below the request.  A commit only adds
occupancy, so the memo stays true; `release` clears the memo of every slot
it frees, and `release_expired` drops the memo together with the slot.
Skipping never changes a result: the skipped slot still yields its first
boundary, its deadline check and one step of the scan limit.

Saturated slots form long runs when the grid is overloaded, and each scan
would walk them again.  For every request width ``n_rb`` the grid keeps one
interval ``[a, b)`` of consecutive live slots that all skip that request.
A scan that meets a skipped slot past its first boundary walks the whole
skipped stretch, jumping from any slot inside the interval straight to
``b``, and merges the stretch into the interval (or replaces the interval,
if the two neither overlap nor touch).  Once the stretch reaches the first
slot whose first start ends past the deadline, or the end of the scan
limit, the scan fails with its first boundary, as the slot-by-slot scan
does: a skipped slot there fails its deadline check, a slot that is not
skipped fails it at its first start, and the scan limit ends the scan.  So
the cost of a scan no longer grows with the backlog, and no result
changes, since an interval holds only slots the scan would skip.  An
interval stays true: a commit only adds occupancy, so it never invalidates
one; `release` frees cells, so it clears every interval; and
`release_expired` drops the slots below its horizon, so it clips every
interval to start at the horizon and drops those that end at or below it.

A live slot's used area is its data area less its free area; the used area
of a slot is written down for the utilization metrics only when
`release_expired` drops the slot.
"""

from __future__ import annotations

from typing import NamedTuple

from .phy import ConfigurationError, ControlConfig, NumerologyProfile, data_region

NO_SCAN_LIMIT = 100_000   # slots; more than any horizon holds


class Placement(NamedTuple):
    slot_idx: int
    sym_start: int          # absolute symbol index within the slot
    n_symbols: int
    rb_start: int
    n_rb: int
    repeats: int
    start_tick: int
    tx_end_tick: int        # end of the last repeat's symbols


def _run_starts(free: int, length: int) -> int:
    """Bits marking the lowest RB of every free run of at least `length`."""
    m = free
    done = 1  # m marks the starts of free runs of `done` RBs
    while done + done <= length:
        m &= m >> done
        done += done
    if done < length:
        m &= m >> (length - done)
    return m


def _fold_shifts(n_fields: int, width: int) -> tuple[int, ...]:
    """Right shifts that OR n_fields fields of `width` bits onto the lowest."""
    shifts = []
    while n_fields > 1:
        n_fields = (n_fields + 1) // 2
        shifts.append(n_fields * width)
    return tuple(shifts)


class _Slot:
    __slots__ = ("occ", "free_area", "no_fit")

    def __init__(self, area: int, no_fit: int):
        self.occ = 0            # RB x symbol occupancy, one n_rb-bit field per symbol
        self.free_area = area
        self.no_fit = no_fit    # fewest RBs known not to fit


class SlotGrid:
    """Occupancy state for one direction of one cell, for bursts of
    `n_symbols` symbols (None: the whole data region, a full slot)."""

    def __init__(self, num: NumerologyProfile, n_rb_total: int, control: ControlConfig,
                 direction: str, n_symbols: int | None = None):
        region = data_region(num, direction, control)
        self.num = num
        self.n_rb = n_rb_total
        self.region_start = region.start
        self.region_len = len(region)
        if n_symbols is None:
            n_symbols = self.region_len
        if not 0 < n_symbols <= self.region_len:
            raise ConfigurationError(
                f"a {n_symbols}-symbol burst does not fit the "
                f"{self.region_len}-symbol data region")
        self.n_symbols = n_symbols
        self.slot_ticks = num.slot_ticks
        self.symbol_ticks = num.symbol_ticks
        # admissible start symbols inside one slot
        self.start_symbols = tuple(range(self.region_start,
                                         self.region_start + self.region_len - n_symbols + 1))
        # each start's (tick offset in the slot, symbol, field shift)
        self._starts = tuple((sym * self.symbol_ticks, sym, (sym - self.region_start) * n_rb_total)
                             for sym in self.start_symbols)
        self.burst_ticks = n_symbols * self.symbol_ticks
        self._full = (1 << n_rb_total) - 1
        self._area = self.region_len * n_rb_total
        # the lowest bit of each of the burst's symbol fields
        self._rep = sum(1 << (i * n_rb_total) for i in range(n_symbols))
        if n_symbols == self.region_len:
            # all fields of a live slot are equal: a window is its lowest field
            self._window, self._fold = self._full, ()
        else:
            # every bit of the burst's fields, and the shifts folding them
            # onto the lowest one
            self._window = self._rep * self._full
            self._fold = _fold_shifts(n_symbols, n_rb_total)
        # the empty memo: more RBs than the carrier has
        self._no_fit_unknown = n_rb_total + 1
        self._slots: dict[int, _Slot] = {}
        # n_rb -> [a, b]: live slots a..b-1 all skipped by that request
        self._full_runs: dict[int, list[int]] = {}
        self._used_area: dict[int, int] = {}  # slots dropped by release_expired
        self._released_before = 0  # slots below this index have been freed

    # -- geometry -------------------------------------------------------------

    def alignment(self, ready_tick: int) -> int:
        """First admissible start boundary at or after ready_tick."""
        slot = ready_tick // self.slot_ticks
        while True:
            base = slot * self.slot_ticks
            for sym in self.start_symbols:
                tick = base + sym * self.symbol_ticks
                if tick >= ready_tick:
                    return tick
            slot += 1

    # -- allocation -----------------------------------------------------------

    def allocate(
        self,
        n_rb: int,
        earliest_tick: int,
        repeats: int = 1,
        max_tx_end_tick: int | None = None,
        scan_limit_slots: int = NO_SCAN_LIMIT,
    ) -> tuple[Placement | None, int]:
        """First-fit rectangle at or after earliest_tick.

        Returns (placement, first_boundary_tick); placement is None when no
        rectangle ends by max_tx_end_tick (or within the scan limit).  With
        repeats > 1 the same rectangle must be free in the following
        repeats-1 slots as well, and all of them are committed.
        """
        if n_rb > self.n_rb:
            raise ConfigurationError(f"{n_rb} RBs exceed the {self.n_rb}-RB carrier")
        starts, burst, n_symbols = self._starts, self.burst_ticks, self.n_symbols
        first_offset = starts[0][0]
        slot_ticks = self.slot_ticks
        area = n_rb * n_symbols
        extra = (repeats - 1) * slot_ticks
        slots = self._slots
        slot = earliest_tick // slot_ticks
        end_slot = slot + scan_limit_slots
        # the first slot whose first start ends past the deadline
        late_slot = end_slot if max_tx_end_tick is None else (
            (max_tx_end_tick - burst - extra - first_offset) // slot_ticks + 1)
        first_boundary = -1
        while slot < end_slot:
            s = slots.get(slot)
            # a burst that cannot fit this slot cannot start in it, repeats or not
            skip = s is not None and (s.free_area < area or s.no_fit <= n_rb)
            if skip and first_boundary >= 0:
                # past the first boundary, a skipped slot only checks the
                # deadline at its first start, so the scan fails once a
                # stretch of skipped slots reaches `stop`: walk the stretch,
                # jumping over the known run, and remember it
                stop = min(late_slot, end_slot)
                run = self._full_runs.get(n_rb)
                lo = slot
                slot += 1
                while slot < stop:
                    if run is not None and run[0] <= slot < run[1]:
                        slot = run[1]
                        continue
                    t = slots.get(slot)
                    if t is None or (t.free_area >= area and t.no_fit > n_rb):
                        break
                    slot += 1
                if run is not None and lo <= run[1] and run[0] <= slot:
                    run[0] = min(run[0], lo)
                    run[1] = max(run[1], slot)
                else:
                    self._full_runs[n_rb] = [lo, slot]
                if slot >= stop:
                    return None, first_boundary
                continue
            base = slot * slot_ticks
            for offset, sym, shift in starts:
                tick = base + offset
                if tick < earliest_tick:
                    continue
                if first_boundary < 0:
                    first_boundary = tick
                if max_tx_end_tick is not None and tick + burst + extra > max_tx_end_tick:
                    return None, first_boundary
                if skip:
                    # no window of this slot fits; its later starts only
                    # lie further past the deadline
                    break
                rb = self._fit(slot, shift, n_rb, area, repeats, s)
                if rb is not None:
                    cells = (((1 << n_rb) - 1) << rb) * self._rep << shift
                    for idx in range(slot, slot + repeats):
                        t = slots.get(idx)
                        if t is None:
                            t = slots[idx] = _Slot(self._area, self._no_fit_unknown)
                        t.occ |= cells
                        t.free_area -= area
                    # tuple.__new__ skips the namedtuple's Python-level
                    # __new__ and its keyword handling: one call per placement
                    return tuple.__new__(Placement, (
                        slot, sym, n_symbols, rb, n_rb, repeats, tick, tick + burst + extra,
                    )), first_boundary
            else:
                # every start of the slot was probed and missed (the scan's
                # first slot may have skipped starts before earliest_tick)
                if repeats == 1 and s is not None and base + first_offset >= earliest_tick:
                    s.no_fit = n_rb
            slot += 1
        if first_boundary < 0:
            first_boundary = self.alignment(earliest_tick)
        return None, first_boundary

    def _fit(
        self, slot: int, shift: int, n_rb: int, area: int, repeats: int, s: _Slot | None,
    ) -> int | None:
        """Lowest free RB of an n_rb-wide window whose first symbol's field
        starts at bit `shift` in `slot` (state `s`) and its repeat slots, or
        None."""
        occ = 0 if s is None else s.occ
        if repeats > 1:
            for r in range(1, repeats):
                t = self._slots.get(slot + r)
                if t is not None:
                    if t.free_area < area:
                        return None
                    occ |= t.occ
        occ = (occ >> shift) & self._window
        if not occ:
            return 0
        for shift in self._fold:
            occ |= occ >> shift
        runs = _run_starts(~occ & self._full, n_rb)
        if not runs:
            return None
        return (runs & -runs).bit_length() - 1

    def release(self, p: Placement, not_before_tick: int | None = None) -> None:
        """Undo a committed placement (superseded packet), repeat slots whose
        transmission has not started by not_before_tick only."""
        first = p.sym_start - self.region_start
        kept = ~((((1 << p.n_rb) - 1) << p.rb_start) * self._rep << (first * self.n_rb))
        area = p.n_rb * p.n_symbols
        for idx in range(p.slot_idx, p.slot_idx + p.repeats):
            if idx < self._released_before:
                continue
            start_tick = idx * self.slot_ticks + p.sym_start * self.symbol_ticks
            if not_before_tick is not None and start_tick < not_before_tick:
                continue
            s = self._slots.get(idx)
            if s is None:
                continue
            s.occ &= kept
            s.free_area += area
            s.no_fit = self._no_fit_unknown
            self._full_runs.clear()

    # -- bookkeeping ----------------------------------------------------------

    def release_expired(self, now_tick: int) -> int:
        """Drop live occupancy state for slots fully in the past, keeping
        their used area for the utilization metrics."""
        horizon = now_tick // self.slot_ticks
        stale = [i for i in self._slots if i < horizon]
        used = self._used_area
        for i in stale:
            # a slot allocated again after it expired adds to its first life
            used[i] = used.get(i, 0) + self._area - self._slots.pop(i).free_area
        if stale:
            self._released_before = max(self._released_before, max(stale) + 1)
            self._full_runs = {n_rb: [max(a, horizon), b]
                               for n_rb, (a, b) in self._full_runs.items() if b > horizon}
        return len(stale)

    def utilization(self, start_tick: int, end_tick: int) -> float:
        """Allocated share of the data capacity over whole slots in a window."""
        first = -(-start_tick // self.slot_ticks)
        n_slots = end_tick // self.slot_ticks - first
        if n_slots <= 0:
            raise ConfigurationError("utilization window shorter than one slot")
        return self.used_area_in(start_tick, end_tick) / (n_slots * self._area)

    def used_area_in(self, start_tick: int, end_tick: int) -> int:
        """Allocated RB x symbol area over whole slots in a window."""
        first = -(-start_tick // self.slot_ticks)
        last = end_tick // self.slot_ticks  # exclusive
        used = sum(a for i, a in self._used_area.items() if first <= i < last)
        return used + sum(self._area - s.free_area
                          for i, s in self._slots.items() if first <= i < last)
