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
free-RB search is a shift-and-AND run computation on its complement.  When
the occupied RBs are RBs 0 to some RB, or none, as first fit leaves them
until a release punches a hole, the window's one free run starts at the
field's bit length and no run computation is needed.

A grid whose bursts are longer than half the data region, 2n > R for a
burst of n symbols in a region of R (full slots, and mini7 bursts in a
region of 13 symbols, or 11 at 60 kHz ECP), is single-layer and keeps one
field per slot.  Two of its starts differ by at most R - n < n symbols, so
every two windows of a slot share a symbol.  An RB that a placement holds
in some symbol is then held in a symbol of every window, so every window's
fold is the OR of all of the slot's fields, every start of the slot gives
the same probe answer, and two placements in one slot never share an RB.
That OR alone stands for the slot: ``rep`` is 1, every start's field shift
is 0, a commit, a release and a probe each work on one ``n_rb``-bit mask,
and a scan probes only the first start it may take in each slot.  The
fold (`_fold_shifts`, a window of several fields) serves mini4 alone,
whose windows need not meet.

A scan starts at the first boundary: the first admissible start at or after
its earliest tick, read from a per-grid table of each tick offset in a
slot.  It lies in the next slot when the earliest tick is past the slot's
last start, and that slot is never looked up; the scan limit still counts
from the earliest tick's slot.  The deadline is bounded once, before the
scan, as the last start tick whose burst, repeats included, ends in time,
and with it the first slot whose first start lies past it: the scan stops
there, or at the scan limit, and a start past the last start tick, which
only the slot before it can hold, ends the scan.  Every slot the scan
visits is looked up once, and a placement is committed into the slot
already in hand; only its repeat slots are looked up again.

On a single-layer grid a request without repeats is first placed at its
first boundary, if it can be, before the scan is built.  The boundary must
lie inside the scan limit, and its burst must end by the deadline.  Its
slot is looked up once: an absent slot takes the request at RB 0, and a
slot whose occupied RBs are RBs 0 to some RB takes it just above them if
the carrier has room.  The scan would return the same: it would start at
that slot, which neither the memo nor a run skips while the request fits
there, and its one probe would take `_fit`'s prefix branch and write no
memo and no run.  A boundary whose slot lies in the known run of its
width (below) is not tried there, and its slot is not looked up.  Every
other case (a hole left by `release`, no room, a boundary past the
deadline or the scan limit, repeats, a grid of several layers) goes to
the scan, which takes the slot already in hand when there is one.

A scan skips a slot without probing it when the slot's occupancy bits
leave too few cells for the request.  A request of ``n_rb`` RBs needs
``n_rb`` clear bits in each field its burst covers, one on a single-layer
grid and n on mini4, so a slot with more than ``room`` bits set, its cell
count less ``n_rb`` times those fields, cannot take it.  On a full slot
this is the free-area test.  On mini7 it is exact while the slot's
occupied RBs are RBs 0 to some RB, as first fit leaves them: the free RBs
are then one run, and the request fits exactly when they are enough.

Each live slot also keeps a "cannot fit" memo, one int: the fewest RBs
known not to fit in any admissible window of that slot.  A first-fit scan
that probed every start symbol of a slot and found no room records its
request there; on a single-layer grid one probe decides the slot, even
one whose earlier starts lie before the earliest tick.  Later scans skip
such a slot without probing it.  On a single-layer grid the count decides
every slot without a hole left by `release`, so the memo matters only on
slots with such a hole and on mini4, whose windows the count does not tell
apart.  A commit only adds occupancy, so the memo stays true; `release` clears the
memo of every slot it frees, and `release_expired` drops the memo together
with the slot.
Skipping never changes a result: the first boundary and the deadline's
slot are fixed before the scan, and a skipped slot still takes one step of
the scan limit.

Saturated slots form long runs when the grid is overloaded, and each scan
would walk them again.  For every request width ``n_rb`` the grid keeps one
interval ``[a, b)`` of consecutive live slots that all skip that request.
A request whose first boundary's slot lies in ``[a, b)``, as many do on an
overloaded grid, since the full slots lie just ahead of the tick the
traffic has reached, starts its scan at ``b``: that slot is not looked up
and the first-boundary placement is not tried.  A scan that meets a skipped
slot walks the whole skipped stretch in one walk, the only one over skipped
slots.  The walk jumps from ``a`` straight to ``b`` when the stretch begins
at ``a`` or reaches it from below, and the stretch is merged into the
interval, whose ends move in place (or replaces it, if the two neither
overlap nor touch); the scan then probes the slot that ends the stretch,
already looked up.  No start of a skipped slot fits, so a stretch that
reaches the deadline's slot or the end of the scan limit fails the scan,
and every failed scan returns its first boundary, whichever start or slot
ends it.  So the cost of a scan no longer grows with the backlog, and no
result changes, since an interval holds only slots the scan would skip, no
slot of it is probed, so no memo is written there, and it does not depend
on `repeats`.  An interval stays true: a commit only adds occupancy, so it
never invalidates one; `release` frees cells, so it clears every interval;
and `release_expired` drops the slots below its horizon, so it clips every
interval to start at the horizon and drops those that end at or below it.
The grid also keeps a bound that no interval ends past, raised whenever one
grows, so a request whose first boundary lies past every interval, as
nearly every request on a grid that is not overloaded does, does not look
its width's interval up.

A live slot's occupancy bits are its only record of what is used, so
commits and releases do no area arithmetic.  Its used area is its set bits
times the symbols one bit stands for: n on a single-layer grid, whose bit
is an RB held for a whole burst (two placements in one slot never share an
RB), and 1 on mini4, whose bit is one RB of one symbol.  The used area of a
slot is written down for the utilization metrics only when
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
    __slots__ = ("occ", "no_fit")

    def __init__(self, no_fit: int):
        self.occ = 0            # an n_rb-bit field per symbol, one on a single-layer grid
        self.no_fit = no_fit    # fewest RBs known not to fit


class SlotGrid:
    """Occupancy state for one direction of one cell, for bursts of
    `n_symbols` symbols (None: the whole data region, a full slot)."""

    def __init__(self, num: NumerologyProfile, n_rb_total: int, control: ControlConfig,
                 direction: str, n_symbols: int | None = None):
        region = data_region(num, direction, control)
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
        # a burst longer than half the data region shares a symbol with every
        # window of its slot, so its grid keeps one field per slot
        self._one_layer = 2 * n_symbols > self.region_len
        n_fields, field_bits = (1, 0) if self._one_layer else (n_symbols, n_rb_total)
        # each start's (tick offset in the slot, symbol, field shift)
        starts = self._starts = tuple(
            (sym * self.symbol_ticks, sym, (sym - self.region_start) * field_bits)
            for sym in self.start_symbols)
        # the starts a scan probes in a slot: one decides a single-layer slot
        probed = self._probed = starts[:1] if self._one_layer else starts
        # for each tick offset in a slot, the first admissible start at or
        # after it: (slots ahead, its tick offset from this slot's start,
        # the starts to probe in its slot, `_probed` itself when all of them)
        first_start = []
        for k, (offset, _, _) in enumerate(starts):
            todo = probed if k == 0 else (starts[k],) if self._one_layer else starts[k:]
            first_start += [(0, offset, todo)] * (offset + 1 - len(first_start))
        entry = (1, self.slot_ticks + starts[0][0], probed)
        first_start += [entry] * (self.slot_ticks - len(first_start))
        self._first_start = tuple(first_start)
        self.burst_ticks = n_symbols * self.symbol_ticks
        self._full = (1 << n_rb_total) - 1
        self._area = self.region_len * n_rb_total
        # a slot's occupancy bits, the symbols one of them stands for, and the
        # fields a burst covers: a slot with more than `_bits - n_rb * _fields`
        # bits set has no room for n_rb RBs
        self._bits, self._per_bit = ((n_rb_total, n_symbols) if self._one_layer
                                     else (self._area, 1))
        self._fields = n_fields
        # the lowest bit of each of the burst's fields, every bit of them, and
        # the shifts folding them onto the lowest one
        self._rep = sum(1 << (i * n_rb_total) for i in range(n_fields))
        self._window = self._rep * self._full
        self._fold = _fold_shifts(n_fields, n_rb_total)
        # the empty memo: more RBs than the carrier has
        self._no_fit_unknown = n_rb_total + 1
        self._slots: dict[int, _Slot] = {}
        # n_rb -> [a, b]: live slots a..b-1 all skipped by that request
        self._full_runs: dict[int, list[int]] = {}
        self._runs_end = 0  # no run ends past this slot; never lowered
        self._used_area: dict[int, int] = {}  # slots dropped by release_expired
        self._released_before = 0  # slots below this index have been freed

    # -- geometry -------------------------------------------------------------

    def alignment(self, ready_tick: int) -> int:
        """First admissible start boundary at or after ready_tick; it serves
        the tests, as `allocate` finds and returns the boundary inline."""
        base = ready_tick - ready_tick % self.slot_ticks
        return base + self._first_start[ready_tick - base][1]

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

        The scan starts at the first boundary, which may lie in the next
        slot, and its limit counts from earliest_tick's slot.  The deadline
        is bounded once, as the last start tick whose burst and repeats end
        by max_tx_end_tick.  Each slot the scan visits is looked up once,
        and a placement is committed into that slot without a second
        lookup.  On a single-layer grid (bursts longer than half the data
        region) the scan probes one start per slot.

        The order is: a first boundary whose slot lies in the known run of
        skipped slots for `n_rb` moves the scan's start to the run's end,
        without looking that slot up; otherwise, on a single-layer grid, a
        request without repeats that fits above the occupied RBs of its
        first boundary's slot, in time, is placed there without the scan,
        as the scan would place it; then the scan, whose one walk over a
        stretch of skipped slots jumps the run where the stretch meets it.
        """
        if not (0 < n_rb <= self.n_rb and repeats > 0 and scan_limit_slots > 0):
            raise ConfigurationError(
                f"{n_rb} RBs x {repeats} repeats within {scan_limit_slots} slots: the "
                f"{self.n_rb}-RB carrier takes 1 to {self.n_rb} RBs, repeated at least "
                "once, in a scan of at least one slot")
        slot_ticks, burst, slots = self.slot_ticks, self.burst_ticks, self._slots
        slot = earliest_tick // slot_ticks
        base = slot * slot_ticks
        ahead, offset, todo = self._first_start[earliest_tick - base]
        first_boundary = base + offset
        # the scan limit counts from earliest_tick's slot, admissible start or not
        end_slot = slot + scan_limit_slots
        slot += ahead
        known = -1  # the slot whose state `s` the scan starts with in hand
        # a first boundary in the known run of slots this width skips is
        # neither looked up nor tried: the scan starts at the run's end (a
        # boundary past every run's end is in none)
        run = self._full_runs.get(n_rb) if slot < self._runs_end else None
        if run is not None and run[0] <= slot < run[1]:
            slot, todo = run[1], self._probed
        # placement at the first boundary: the scan's first probe, taken
        # without the scan when the boundary is inside the scan limit, its
        # burst ends by the deadline and its slot's occupied RBs are a prefix
        elif self._one_layer and repeats == 1 and slot < end_slot and (
                max_tx_end_tick is None or first_boundary + burst <= max_tx_end_tick):
            known = slot
            s = slots.get(known)
            occ = 0 if s is None else s.occ
            rb = occ.bit_length()
            if not occ & (occ + 1) and rb + n_rb <= self.n_rb:
                if s is None:
                    s = slots[known] = _Slot(self._no_fit_unknown)
                s.occ = occ | ((1 << n_rb) - 1) << rb
                return tuple.__new__(Placement, (
                    known, todo[0][1], self.n_symbols, rb, n_rb, 1,
                    first_boundary, first_boundary + burst,
                )), first_boundary
        probed = self._probed
        room = self._bits - n_rb * self._fields
        extra = (repeats - 1) * slot_ticks
        if max_tx_end_tick is None:
            # every start before the scan limit is before last_tick
            last_tick, stop = end_slot * slot_ticks, end_slot
        else:
            # the last start whose burst, repeats included, ends by the
            # deadline, and the first slot whose first start is past it
            last_tick = max_tx_end_tick - burst - extra
            stop = (last_tick - probed[0][0]) // slot_ticks + 1
            if stop > end_slot:
                stop = end_slot
        while slot < stop:
            if slot != known:
                s = slots.get(slot)
            # a burst that cannot fit this slot cannot start in it, repeats or not
            if s is not None and (s.occ.bit_count() > room or s.no_fit <= n_rb):
                # no start of a skipped slot fits, so the scan fails once a
                # stretch of skipped slots reaches `stop`: walk the stretch,
                # merge it into the known run, jumping the run at the first
                # of its slots the walk meets, and probe the slot that ends
                # the stretch
                run = self._full_runs.get(n_rb)
                lo = slot
                slot += 1
                meet = max(run[0], slot) if run is not None and lo <= run[0] else -1
                while True:
                    if slot == meet:
                        run[0], slot = lo, run[1]
                    if slot >= stop:
                        break
                    s = slots.get(slot)
                    if s is None or (s.occ.bit_count() <= room and s.no_fit > n_rb):
                        break
                    slot += 1
                if run is not None and run[0] <= lo <= run[1]:
                    run[1] = slot
                else:
                    self._full_runs[n_rb] = [lo, slot]
                if slot > self._runs_end:
                    self._runs_end = slot
                if slot >= stop:
                    break
                todo = probed
            base = slot * slot_ticks
            for offset, sym, shift in todo:
                tick = base + offset
                if tick > last_tick:
                    return None, first_boundary
                rb = self._fit(slot, shift, n_rb, room, repeats, s)
                if rb is not None:
                    cells = (((1 << n_rb) - 1) << rb) * self._rep << shift
                    if s is None:
                        s = slots[slot] = _Slot(self._no_fit_unknown)
                    s.occ |= cells
                    if repeats > 1:
                        for idx in range(slot + 1, slot + repeats):
                            t = slots.get(idx)
                            if t is None:
                                t = slots[idx] = _Slot(self._no_fit_unknown)
                            t.occ |= cells
                    # tuple.__new__ skips the namedtuple's Python-level
                    # __new__ and its keyword handling: one call per placement
                    return tuple.__new__(Placement, (
                        slot, sym, self.n_symbols, rb, n_rb, repeats, tick, tick + burst + extra,
                    )), first_boundary
            else:
                # every start of the slot was probed and missed (the scan's
                # first slot may have skipped starts before earliest_tick,
                # which a single-layer slot's one probe decides as well)
                if repeats == 1 and s is not None and (todo is probed or self._one_layer):
                    s.no_fit = n_rb
            todo = probed
            slot += 1
        return None, first_boundary

    def _fit(
        self, slot: int, shift: int, n_rb: int, room: int, repeats: int, s: _Slot | None,
    ) -> int | None:
        """Lowest free RB of an n_rb-wide window whose first symbol's field
        starts at bit `shift` in `slot` (state `s`) and its repeat slots, or
        None; a repeat slot with more than `room` bits set has no room."""
        occ = 0 if s is None else s.occ
        if repeats > 1:
            for r in range(1, repeats):
                t = self._slots.get(slot + r)
                if t is not None:
                    if t.occ.bit_count() > room:
                        return None
                    occ |= t.occ
        occ = (occ >> shift) & self._window
        for shift in self._fold:
            occ |= occ >> shift
        occ &= self._full
        if not occ & (occ + 1):
            # the occupied RBs are RBs 0 to some RB, or none: the window's
            # one free run lies above them
            rb = occ.bit_length()
            return rb if rb + n_rb <= self.n_rb else None
        runs = _run_starts(occ ^ self._full, n_rb)
        if not runs:
            return None
        return (runs & -runs).bit_length() - 1

    def release(self, p: Placement, not_before_tick: int | None = None) -> None:
        """Undo a committed placement (superseded packet), repeat slots whose
        transmission has not started by not_before_tick only."""
        shift = self._starts[p.sym_start - self.region_start][2]
        kept = ~((((1 << p.n_rb) - 1) << p.rb_start) * self._rep << shift)
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
            used[i] = used.get(i, 0) + self._slots.pop(i).occ.bit_count() * self._per_bit
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
        return used + self._per_bit * sum(s.occ.bit_count()
                                          for i, s in self._slots.items() if first <= i < last)
