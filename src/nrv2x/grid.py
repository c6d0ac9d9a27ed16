"""Per-direction RB x symbol occupancy emulation.

One SlotGrid owns the data region of every slot in one direction: control
symbols are excluded up front, data allocations are rectangles of consecutive
RBs x consecutive symbols inside a single slot's data region, and the
scheduler is first-fit in (slot, start symbol, start RB) order.

Occupancy is a per-symbol bitmask of RBs (python ints), so the consecutive
free-RB search is a shift-and-AND run computation.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .phy import ConfigurationError, ControlConfig, NumerologyProfile, data_region


@dataclass(frozen=True)
class Placement:
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
    done = 1
    while done < length:
        step = min(done, length - done)
        m &= m >> step
        done += step
    return m


class _Slot:
    __slots__ = ("masks", "free_area", "no_fit")

    def __init__(self, n_region_symbols: int, area: int, no_fit: tuple[int, ...]):
        self.masks = [0] * n_region_symbols
        self.free_area = area
        self.no_fit = no_fit  # [n_symbols] -> fewest RBs known not to fit


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
        # the empty memo, shared by every slot until it records an entry:
        # more RBs than the carrier has, for every burst length
        self._no_fit_unknown = (n_rb_total + 1,) * (self.region_len + 1)
        self._slots: dict[int, _Slot] = {}
        self._used_area: dict[int, int] = {}
        self._released_before = 0  # slots below this index have been freed

    # -- geometry -------------------------------------------------------------

    def data_symbols(self) -> int:
        return self.region_len

    def start_symbols(self, n_symbols: int, full_slot: bool) -> list[int]:
        """Admissible start symbols inside one slot for an n_symbols burst."""
        if n_symbols > self.region_len:
            raise ConfigurationError(
                f"{n_symbols} symbols exceed the {self.region_len}-symbol data region"
            )
        if full_slot:
            if n_symbols != self.region_len:
                raise ConfigurationError("full-slot bursts span the whole data region")
            return [self.region_start]
        last = self.region_start + self.region_len - n_symbols
        return list(range(self.region_start, last + 1))

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

    def _slot_state(self, idx: int) -> _Slot:
        s = self._slots.get(idx)
        if s is None:
            s = _Slot(self.region_len, self._area, self._no_fit_unknown)
            self._slots[idx] = s
        return s

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
        area = n_rb * n_symbols
        burst = n_symbols * self.symbol_ticks
        extra = (repeats - 1) * self.slot_ticks
        slots = self._slots
        slot = earliest_tick // self.slot_ticks
        first_boundary = -1
        for _ in range(scan_limit_slots):
            base = slot * self.slot_ticks
            s = slots.get(slot)
            # a burst that cannot fit this slot cannot start in it, repeats or not
            skip = s is not None and (s.free_area < area or s.no_fit[n_symbols] <= n_rb)
            for sym in starts:
                tick = base + sym * self.symbol_ticks
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
                rb = self._fit(slot, sym - self.region_start, n_symbols, n_rb, area, repeats, s)
                if rb is not None:
                    placement = Placement(
                        slot, sym, n_symbols, rb, n_rb, repeats, tick, tick + burst + extra
                    )
                    self._commit(placement)
                    if self.trace is not None:
                        for r in range(repeats):
                            self.trace.append((slot + r, rb, n_rb, sym, n_symbols, owner))
                    return placement, first_boundary
            else:
                # every start of the slot was probed and missed (the scan's
                # first slot may have skipped starts before earliest_tick)
                first_tick = base + self.region_start * self.symbol_ticks
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
        """Lowest free RB of an n_rb x n_symbols window in `slot` (state `s`)
        and its repeat slots, or None."""
        occ = 0
        if s is not None:
            for m in s.masks[first : first + n_symbols]:
                occ |= m
        if repeats > 1:
            for r in range(1, repeats):
                t = self._slots.get(slot + r)
                if t is not None:
                    if t.free_area < area:
                        return None
                    for m in t.masks[first : first + n_symbols]:
                        occ |= m
        runs = _run_starts(~occ & self._full, n_rb)
        if not runs:
            return None
        return (runs & -runs).bit_length() - 1

    def _commit(self, p: Placement) -> None:
        bits = ((1 << p.n_rb) - 1) << p.rb_start
        first = p.sym_start - self.region_start
        area = p.n_rb * p.n_symbols
        for r in range(p.repeats):
            s = self._slot_state(p.slot_idx + r)
            for i in range(first, first + p.n_symbols):
                s.masks[i] |= bits
            s.free_area -= area
            self._used_area[p.slot_idx + r] = self._used_area.get(p.slot_idx + r, 0) + area

    def release(self, p: Placement, not_before_tick: int | None = None) -> None:
        """Undo a committed placement (superseded packet), repeat slots whose
        transmission has not started by not_before_tick only."""
        bits = ((1 << p.n_rb) - 1) << p.rb_start
        first = p.sym_start - self.region_start
        area = p.n_rb * p.n_symbols
        for r in range(p.repeats):
            idx = p.slot_idx + r
            if idx < self._released_before:
                continue
            start_tick = idx * self.slot_ticks + p.sym_start * self.symbol_ticks
            if not_before_tick is not None and start_tick < not_before_tick:
                continue
            s = self._slots.get(idx)
            if s is None:
                continue
            for i in range(first, first + p.n_symbols):
                s.masks[i] &= ~bits
            s.free_area += area
            s.no_fit = self._no_fit_unknown
            self._used_area[idx] -= area

    # -- bookkeeping ----------------------------------------------------------

    def release_expired(self, now_tick: int) -> int:
        """Drop live occupancy state for slots fully in the past."""
        horizon = now_tick // self.slot_ticks
        stale = [i for i in self._slots if i + 1 <= horizon]
        for i in stale:
            del self._slots[i]
        if stale:
            self._released_before = max(self._released_before, max(stale) + 1)
        return len(stale)

    def utilization(self, start_tick: int, end_tick: int) -> float:
        """Allocated share of the data capacity over whole slots in a window."""
        first = -(-start_tick // self.slot_ticks)
        last = end_tick // self.slot_ticks  # exclusive
        n_slots = last - first
        if n_slots <= 0:
            raise ConfigurationError("utilization window shorter than one slot")
        used = sum(self._used_area.get(i, 0) for i in range(first, last))
        return used / (n_slots * self._area)

    def used_area_in(self, start_tick: int, end_tick: int) -> int:
        first = -(-start_tick // self.slot_ticks)
        last = end_tick // self.slot_ticks
        return sum(self._used_area.get(i, 0) for i in range(first, last))
