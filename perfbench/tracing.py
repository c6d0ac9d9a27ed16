"""Per-layer tracing of nrv2x from outside the package.

The tracer replaces public functions and methods of the nrv2x modules with
timing wrappers and puts them back on exit; the simulator's sources are not
touched.  Every wrapper takes part in one call stack, so a layer's self time
is its inclusive time minus the inclusive time of the wrapped calls it made.

Coarse calls (import, replication, world set-up, event loop, aggregation)
also record a span each.  Calls made tens of thousands of times per
replication (allocation, latency chains, DCI enqueue, heap push and pop)
only add to a count and an inclusive and self time, so the trace stays
small.  Spans are kept in memory; `dump` writes them once the run is over.
"""

from __future__ import annotations

import heapq
import json
import time
import types

# (module, class or None for a module function, attribute, layer name)
_TIMED = (
    ("engine", None, "run_replication", "engine.replication"),
    ("engine", "_Replication", "__init__", "engine.replication_setup"),
    ("engine", "_Replication", "run", "engine.loop"),
    ("engine", None, "aggregate", "engine.aggregate"),
    ("engine", None, "relative_error", "engine.relative_error"),
    ("scenario", None, "place_vehicles", "scenario.place_vehicles"),
    ("scenario", None, "generate_arrivals", "scenario.generate_arrivals"),
    ("scenario", None, "nearest_neighbours", "scenario.nearest_neighbours"),
    ("link", None, "rbs_for_packet", "link.rbs_for_packet"),
    ("latency", None, "data_chain", "latency.data_chain"),
    ("latency", None, "grant_chain", "latency.grant_chain"),
    ("latency", None, "sr_chain", "latency.sr_chain"),
    ("latency", None, "nack_chain", "latency.nack_chain"),
    ("grid", "SlotGrid", "release", "grid.release"),
    ("grid", "SlotGrid", "release_expired", "grid.release_expired"),
)
# the coarse layers, which also record one span per call
_SPANNED = {"engine.replication", "engine.replication_setup", "engine.loop",
            "engine.aggregate"}


class Tracer:
    """Installs wrappers on the nrv2x modules; use as a context manager."""

    def __init__(self):
        self.counters: dict[str, list] = {}   # layer -> [calls, inclusive s, self s]
        self.spans: list[dict] = []
        self.scan = {"slots": 0, "slots_max": 0, "probes": 0, "misses": 0}
        self.dci = {"wait_slots": 0, "wait_slots_max": 0}
        self.heap_peak = 0
        self._stack = [0.0]        # child time accumulated by each open call
        self._span_stack = [None]  # ids of the open spans
        self._fit_state = [0, None]  # slots seen by the open allocate call, last slot
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        from nrv2x import control, engine, grid, latency, link, scenario

        modules = {"engine": engine, "scenario": scenario, "link": link,
                   "latency": latency, "grid": grid, "control": control}
        try:
            for mod, owner, attr, layer in _TIMED:
                target = modules[mod] if owner is None else getattr(modules[mod], owner)
                self._patch(target, attr, self._timed(vars(target)[attr], layer,
                                                      layer in _SPANNED))
            self._patch(grid.SlotGrid, "allocate",
                        self._timed(self._scanning_allocate(vars(grid.SlotGrid)["allocate"]),
                                    "grid.allocate", False))
            self._patch(grid.SlotGrid, "_fit", self._probing_fit(vars(grid.SlotGrid)["_fit"]))
            self._patch(control.DciQueue, "enqueue",
                        self._timed(self._waiting_enqueue(vars(control.DciQueue)["enqueue"]),
                                    "control.dci_enqueue", False))
            self._patch(engine, "heapq", self._heap_proxy())
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, target, attr: str, replacement) -> None:
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, replacement)

    def restore(self) -> None:
        """Put every patched attribute back, last patched first."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, fn, layer: str, spanned: bool):
        counter = self.counters.setdefault(layer, [0, 0.0, 0.0])
        stack = self._stack
        perf = time.perf_counter

        def hot(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                stack[-1] += dt
                counter[0] += 1
                counter[1] += dt
                counter[2] += dt - child

        if not spanned:
            return hot

        def span(*args, **kwargs):
            sid = len(self.spans)
            record = {"id": sid, "parent": self._span_stack[-1], "name": layer,
                      "start": perf(), "end": None}
            self.spans.append(record)
            self._span_stack.append(sid)
            before = self._snapshot() if layer == "engine.replication" else None
            try:
                return hot(*args, **kwargs)
            finally:
                self._span_stack.pop()
                record["end"] = perf()
                if before is not None:
                    after = self._snapshot()
                    record["counters"] = {
                        k: [a - b for a, b in zip(after[k], before.get(k, (0, 0.0, 0.0)))]
                        for k in after
                    }

        return span

    def add_span(self, name: str, start: float, end: float) -> None:
        self.spans.append({"id": len(self.spans), "parent": self._span_stack[-1],
                           "name": name, "start": start, "end": end})

    def _snapshot(self) -> dict:
        return {k: tuple(v) for k, v in self.counters.items()}

    def _scanning_allocate(self, allocate):
        scan = self.scan
        state = self._fit_state

        def wrapper(grid, *args, **kwargs):
            state[0], state[1] = 0, None
            result = allocate(grid, *args, **kwargs)
            n = state[0]
            scan["slots"] += n
            if n > scan["slots_max"]:
                scan["slots_max"] = n
            if result[0] is None:
                scan["misses"] += 1
            return result

        return wrapper

    def _probing_fit(self, fit):
        scan = self.scan
        state = self._fit_state

        def wrapper(grid, slot, *args):
            scan["probes"] += 1
            if slot != state[1]:
                state[0] += 1
                state[1] = slot
            return fit(grid, slot, *args)

        return wrapper

    def _waiting_enqueue(self, enqueue):
        dci = self.dci

        def wrapper(queue, created_tick):
            drain = enqueue(queue, created_tick)
            eligible = queue.first_eligible_slot(created_tick) * queue.slot_ticks
            wait = (drain - eligible) // queue.slot_ticks
            dci["wait_slots"] += wait
            if wait > dci["wait_slots_max"]:
                dci["wait_slots_max"] = wait
            return drain

        return wrapper

    def _heap_proxy(self):
        def push(heap, item):
            heapq.heappush(heap, item)
            if len(heap) > self.heap_peak:
                self.heap_peak = len(heap)

        return types.SimpleNamespace(
            heappush=self._timed(push, "engine.heap_push", False),
            heappop=self._timed(heapq.heappop, "engine.heap_pop", False),
        )

    # -- results ----------------------------------------------------------------

    def calls(self, layer: str) -> int:
        return self.counters.get(layer, (0,))[0]

    def inclusive_s(self, layer: str) -> float:
        return self.counters.get(layer, (0, 0.0))[1]

    def self_s(self, layer: str) -> float:
        return self.counters.get(layer, (0, 0.0, 0.0))[2]

    def dump(self, path, meta: dict) -> None:
        """Write the spans and the per-layer counters as one JSON document."""
        doc = {"meta": meta, "counters": self.counters, "scan": self.scan,
               "dci": self.dci, "heap_peak": self.heap_peak, "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)
