"""Host-speed sampling, to take the shared host's speed out of host times.

The benchmark's host is shared, and its speed changes in phases that last
from a tenth of a second to minutes: the same fixed loop runs up to 1.7x
slower in a slow phase.  A host time measured across such phases says as
much about the host as about the simulator.

`HostSpeed` samples the host's speed while the simulator runs.  A wall-clock
interval timer interrupts the main thread every `INTERVAL_S`; the signal
handler runs `probe()`, a fixed piece of interpreter work in the simulator's
style (a binary heap, method calls, dict look-ups and first-fit over RB
bitmasks), and records how long it took.  The time spent in probes is taken
out of the measured time, and the rest is scaled by
`REFERENCE_S / mean probe time`: the time the same work would have taken at
the reference speed.  It is the mean because the measured time adds up fast
and slow phases alike.  The mean leaves out the slowest and the fastest
tenth of the probes, because a probe now and then takes several times its
usual time for reasons of its own, such as a page fault.

The probe touches no nrv2x code, so a change to the simulator cannot move
it.  It makes next to no objects the garbage collector tracks, and it runs
with the collector off, so that no collection of the simulator's objects is
charged to it.  Only the standard library is used, so that a set-up probe
can sample before `import nrv2x` without importing any of its dependencies
early.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

INTERVAL_S = 0.02
# seconds of one probe() at the reference speed: near its median on the
# baseline host (2 vCPUs of a 2.1 GHz Xeon, Python 3.11.7), where it ranged
# from 0.6 ms in a fast phase to 1.6 ms in a slow one
REFERENCE_S = 1.2e-3

_SYMBOLS = 14
_RBS = 50
_SLOTS = 4
_REQUESTS = 120
_SCAN = 6


class _Grid:
    """A small first-fit RB grid; its slots are made once and reused."""

    __slots__ = ("masks", "full")

    def __init__(self):
        self.masks = {i: [0] * _SYMBOLS for i in range(_SLOTS)}
        self.full = (1 << _RBS) - 1

    def clear(self) -> None:
        for masks in self.masks.values():
            for i in range(_SYMBOLS):
                masks[i] = 0

    def window_free(self, slot: int, first: int, n_symbols: int) -> int:
        masks = self.masks.get(slot)
        occ = 0
        for i in range(first, first + n_symbols):
            occ |= masks[i]
        return ~occ & self.full

    def commit(self, slot: int, first: int, n_symbols: int, bits: int) -> None:
        masks = self.masks[slot]
        for i in range(first, first + n_symbols):
            masks[i] |= bits


def _run_starts(free: int, length: int) -> int:
    done = 1
    while done < length:
        step = min(done, length - done)
        free &= free >> step
        done += step
    return free


_grid = _Grid()
_heap: list[int] = []


def probe() -> int:
    """Fixed work: requests through a heap, first-fit in a reused RB grid."""
    _grid.clear()
    _heap.clear()
    x, placed = 7, 0
    for _ in range(_REQUESTS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(_heap, x % 4093)
        n_rb, n_symbols = 2 + x % 11, 2 + (x >> 5) % 4
        first = (x >> 9) % (_SYMBOLS - n_symbols)
        slot = heapq.heappop(_heap) % _SLOTS if x & 1 else _heap[0] % _SLOTS
        for _ in range(_SCAN):
            runs = _run_starts(_grid.window_free(slot, first, n_symbols), n_rb)
            if runs:
                rb = (runs & -runs).bit_length() - 1
                _grid.commit(slot, first, n_symbols, ((1 << n_rb) - 1) << rb)
                placed += 1
                break
            slot = (slot + 1) % _SLOTS
    return placed


class HostSpeed:
    """Samples probe() times while the `with` block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, *_) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()  # so that even a short block has one sample
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def spent_s(self) -> float:
        """Seconds spent in probes."""
        return sum(self.samples)

    @property
    def scale(self) -> float:
        """Reference speed over the sampled speed (below 1 in a slow phase)."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        kept = ordered[cut:len(ordered) - cut]
        return REFERENCE_S * len(kept) / sum(kept)


def timed(fn, *args):
    """(fn's result, seconds at the reference speed, seconds as measured)."""
    with HostSpeed() as speed:
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        probes_s = speed.spent_s - speed.samples[0]  # the first ran before t0
    wall = elapsed - probes_s
    return result, wall * speed.scale, wall


if __name__ == "__main__":
    with HostSpeed() as speed:
        end = time.perf_counter() + 10
        while time.perf_counter() < end:
            pass
    samples = sorted(speed.samples)
    print(f"{len(samples)} probes: min {samples[0]:.3e} s, "
          f"median {samples[len(samples) // 2]:.3e} s, max {samples[-1]:.3e} s")
