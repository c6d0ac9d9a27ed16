"""Per-direction RB x symbol occupancy emulation.

One SlotGrid owns the data region of every slot in one direction: control
symbols are excluded up front, data allocations are rectangles of consecutive
RBs x consecutive symbols inside a single slot's data region, and the
scheduler is first-fit in (slot, start symbol, start RB) order.

A live slot's occupancy is one python int.  Data-region symbol ``i``
(counted from the first data symbol) owns the ``n_rb``-bit field at bits
``[i * n_rb, (i + 1) * n_rb)``, and bit ``b`` of a field is RB ``b``, so the
lowest field is the earliest symbol and the lowest bit of a field the lowest
RB.  An RB mask repeated over ``n`` consecutive symbols is the mask times
``rep[n] = 1 + 2**n_rb + ... + 2**((n - 1) * n_rb)``; the mask fits in one
field, so the product has no carries and a commit or a release is a single
``|=`` or ``&= ~``.  To probe an ``n``-symbol window, the window's fields are
cut out and folded onto the lowest one by ceil(log2 n) shift-ORs, each
halving (rounding up) the number of fields still to fold.  The lowest field
then holds every RB occupied in some symbol of the window, and the
consecutive free-RB search is a shift-and-AND run computation on its
complement.

Each live slot also keeps a "cannot fit" memo: for every burst length in
symbols, the fewest RBs known not to fit in any admissible window of that
slot.  A first-fit scan that probed every start symbol of a slot and found
no room records its request there; the burst length alone is the key, as
a full-slot burst has the single window of a region-long mini-slot burst.
Later scans skip such a slot without probing it, as they skip a slot whose
free area is below the request.  A commit only adds occupancy, so an entry
stays true; `release` clears the memo of every slot it frees, and
`release_expired` drops the memo together with the slot.  Skipping never
changes a result: the skipped slot still yields its first boundary, its
deadline check and one step of the scan limit.

A live slot's used area is its data area less its free area; the used area
of a slot is written down for the utilization metrics only when
`release_expired` drops the slot.
"""

from __future__ import annotations

from typing import NamedTuple

from .phy import ConfigurationError, ControlConfig, NumerologyProfile, data_region


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

    def __init__(self, area: int, no_fit: tuple[int, ...]):
        self.occ = 0            # RB x symbol occupancy, one n_rb-bit field per symbol
        self.free_area = area
        self.no_fit = no_fit    # [n_symbols] -> fewest RBs known not to fit


class SlotGrid:
    """Occupancy state for one direction of one cell."""

    def __init__(
        self,
        num: NumerologyProfile,
        n_rb_total: int,
        control: ControlConfig,
        direction: str,
        trace: list | None = None,
    ):
        region = data_region(num, direction, control)
        self.trace = trace
        self.num = num
        self.direction = direction
        self.n_rb = n_rb_total
        self.region_start = region.start
        self.region_len = len(region)
        self.slot_ticks = num.slot_ticks
        self.symbol_ticks = num.symbol_ticks
        self._full = (1 << n_rb_total) - 1
        self._area = self.region_len * n_rb_total
        n_fields = range(self.region_len + 1)
        # [n] -> the lowest bit of each of n consecutive symbol fields
        self._rep = [sum(1 << (i * n_rb_total) for i in range(n)) for n in n_fields]
        # [n] -> every bit of the lowest n fields
        self._window = [rep * self._full for rep in self._rep]
        # [n] -> shifts folding n fields onto the lowest one
        self._fold = [_fold_shifts(n, n_rb_total) for n in n_fields]
        # the empty memo, shared by every slot until it records an entry:
        # more RBs than the carrier has, for every burst length
        self._no_fit_unknown = (n_rb_total + 1,) * (self.region_len + 1)
        self._starts: dict[tuple[int, bool], tuple[int, ...]] = {}
        self._slots: dict[int, _Slot] = {}
        self._used_area: dict[int, int] = {}  # slots dropped by release_expired
        self._released_before = 0  # slots below this index have been freed

    # -- geometry -------------------------------------------------------------

    def data_symbols(self) -> int:
        return self.region_len

    def start_symbols(self, n_symbols: int, full_slot: bool) -> tuple[int, ...]:
        """Admissible start symbols inside one slot for an n_symbols burst."""
        starts = self._starts.get((n_symbols, full_slot))
        if starts is not None:
            return starts
        if n_symbols > self.region_len:
            raise ConfigurationError(
                f"{n_symbols} symbols exceed the {self.region_len}-symbol data region"
            )
        if full_slot:
            if n_symbols != self.region_len:
                raise ConfigurationError("full-slot bursts span the whole data region")
            starts = (self.region_start,)
        else:
            last = self.region_start + self.region_len - n_symbols
            starts = tuple(range(self.region_start, last + 1))
        self._starts[(n_symbols, full_slot)] = starts
        return starts

    def alignment(self, ready_tick: int, n_symbols: int, full_slot: bool) -> int:
        """First admissible start boundary at or after ready_tick."""
        starts = self.start_symbols(n_symbols, full_slot)
        slot = ready_tick // self.slot_ticks
        while True:
            base = slot * self.slot_ticks
            for sym in starts:
                tick = base + sym * self.symbol_ticks
                if tick >= ready_tick:
                    return tick
            slot += 1

    # -- allocation -----------------------------------------------------------

    def allocate(
        self,
        n_rb: int,
        n_symbols: int,
        earliest_tick: int,
        full_slot: bool,
        repeats: int = 1,
        max_tx_end_tick: int | None = None,
        scan_limit_slots: int = 100_000,
        owner=None,
    ) -> tuple[Placement | None, int]:
        """First-fit rectangle at or after earliest_tick.

        Returns (placement, first_boundary_tick); placement is None when no
        rectangle ends by max_tx_end_tick (or within the scan limit).  With
        repeats > 1 the same rectangle must be free in the following
        repeats-1 slots as well, and all of them are committed.
        """
        if n_rb > self.n_rb:
            raise ConfigurationError(f"{n_rb} RBs exceed the {self.n_rb}-RB carrier")
        starts = self.start_symbols(n_symbols, full_slot)
        slot_ticks = self.slot_ticks
        symbol_ticks = self.symbol_ticks
        region_start = self.region_start
        area = n_rb * n_symbols
        burst = n_symbols * symbol_ticks
        extra = (repeats - 1) * slot_ticks
        slots = self._slots
        slot = earliest_tick // slot_ticks
        end_slot = slot + scan_limit_slots
        # the first slot whose first start ends past the deadline
        late_slot = end_slot if max_tx_end_tick is None else (
            (max_tx_end_tick - burst - extra - region_start * symbol_ticks) // slot_ticks + 1)
        first_boundary = -1
        while slot < end_slot:
            s = slots.get(slot)
            # a burst that cannot fit this slot cannot start in it, repeats or not
            skip = s is not None and (s.free_area < area or s.no_fit[n_symbols] <= n_rb)
            if skip and first_boundary >= 0:
                # past the first boundary, a skipped slot only checks the
                # deadline at its first start
                if slot >= late_slot:
                    return None, first_boundary
                slot += 1
                continue
            base = slot * slot_ticks
            for sym in starts:
                tick = base + sym * symbol_ticks
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
                first = sym - region_start
                rb = self._fit(slot, first, n_symbols, n_rb, area, repeats, s)
                if rb is not None:
                    cells = (((1 << n_rb) - 1) << rb) * self._rep[n_symbols] << (first * self.n_rb)
                    for idx in range(slot, slot + repeats):
                        t = slots.get(idx)
                        if t is None:
                            t = slots[idx] = _Slot(self._area, self._no_fit_unknown)
                        t.occ |= cells
                        t.free_area -= area
                    if self.trace is not None:
                        for r in range(repeats):
                            self.trace.append((slot + r, rb, n_rb, sym, n_symbols, owner))
                    return Placement(slot, sym, n_symbols, rb, n_rb, repeats, tick,
                                     tick + burst + extra), first_boundary
            else:
                # every start of the slot was probed and missed (the scan's
                # first slot may have skipped starts before earliest_tick)
                first_tick = base + region_start * symbol_ticks
                if repeats == 1 and s is not None and first_tick >= earliest_tick:
                    no_fit = s.no_fit
                    s.no_fit = no_fit[:n_symbols] + (n_rb,) + no_fit[n_symbols + 1 :]
            slot += 1
        if first_boundary < 0:
            first_boundary = self.alignment(earliest_tick, n_symbols, full_slot)
        return None, first_boundary

    def _fit(
        self, slot: int, first: int, n_symbols: int, n_rb: int, area: int, repeats: int,
        s: _Slot | None,
    ) -> int | None:
        """Lowest free RB of an n_rb x n_symbols window starting at region
        symbol `first` in `slot` (state `s`) and its repeat slots, or None."""
        occ = 0 if s is None else s.occ
        if repeats > 1:
            for r in range(1, repeats):
                t = self._slots.get(slot + r)
                if t is not None:
                    if t.free_area < area:
                        return None
                    occ |= t.occ
        occ = (occ >> (first * self.n_rb)) & self._window[n_symbols]
        if not occ:
            return 0
        for shift in self._fold[n_symbols]:
            occ |= occ >> shift
        runs = _run_starts(~occ & self._full, n_rb)
        if not runs:
            return None
        return (runs & -runs).bit_length() - 1

    def release(self, p: Placement, not_before_tick: int | None = None) -> None:
        """Undo a committed placement (superseded packet), repeat slots whose
        transmission has not started by not_before_tick only."""
        first = p.sym_start - self.region_start
        kept = ~((((1 << p.n_rb) - 1) << p.rb_start) * self._rep[p.n_symbols]
                 << (first * self.n_rb))
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
