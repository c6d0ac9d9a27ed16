"""Host-speed benchmark of the nrv2x simulator.

    python3 perfbench/run.py --workload flat_load --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; nrv2x is imported from its `src/`.  The
benchmark runs for about `--seconds` seconds: it times set-up in fresh
interpreters, runs the workload's fixed work (one unit) once to warm up, and
repeats it while the next unit is expected to end in time.  It checks every
simulated replication, and prints each metric by name and unit, the
simulated outputs, and, as its last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end host metrics.  Their times
are scaled to the reference host speed by `perfbench.hostspeed`, which
samples the shared host's speed while they are measured; the times as
measured are printed beside them.  With `--trace 1` one untraced unit runs
first, then traced units, and the metrics are the per-layer numbers, the
traced wall time and the tracing overhead, as measured; the spans are
written to `perfbench/out/`.

Only the standard library is imported at module level, so that a set-up
probe (`--probe-setup`, a fresh interpreter) times `import nrv2x` itself.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench.hostspeed import timed  # noqa: E402  (standard library only)

SETUP_PROBES = 5
# the keys of perfbench.workloads.WORKLOADS, which imports nrv2x
WORKLOAD_NAMES = ("flat_load", "overload_mini7", "dynamic_harq_unicast")

END_TO_END_UNITS = {
    "pkts_per_s": "pkt/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "grid.allocate.calls": "count",
    "grid.allocate.self_s": "s",
    "grid.allocate.us_per_call": "us",
    "grid.allocate.slots_scanned_mean": "slot",
    "grid.allocate.slots_scanned_max": "slot",
    "grid.allocate.miss_ratio": "ratio",
    "grid.allocate.probes": "count",
    "grid.release.calls": "count",
    "grid.release_expired.self_s": "s",
    "engine.events": "count",
    "engine.events_per_pkt": "event/pkt",
    "engine.us_per_event": "us",
    "engine.heap_peak": "count",
    "engine.heap.self_s": "s",
    "engine.loop_self_s": "s",
    "engine.replication_setup_s": "s",
    "engine.aggregate.self_s": "s",
    "engine.relative_error.self_s": "s",
    "engine.import_s": "s",
    "latency.data_chain.calls": "count",
    "latency.data_chain.self_s": "s",
    "latency.grant_chain.calls": "count",
    "latency.grant_chain.self_s": "s",
    "latency.sr_chain.calls": "count",
    "latency.nack_chain.calls": "count",
    "control.dci_enqueue.calls": "count",
    "control.dci_enqueue.self_s": "s",
    "control.dci_wait_slots_mean": "slot",
    "control.dci_wait_slots_max": "slot",
    "scenario.place_vehicles.self_s": "s",
    "scenario.generate_arrivals.calls": "count",
    "scenario.generate_arrivals.self_s": "s",
    "scenario.nearest_neighbours.self_s": "s",
    "link.rbs_for_packet.calls": "count",
    "link.rbs_for_packet.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Unit:
    """Outcome of one run of a workload's fixed work."""

    def __init__(self, wall_s: float, measured_s: float, attempted: int):
        self.wall_s = wall_s  # at the reference host speed
        self.measured_s = measured_s
        self.attempted = attempted
        self.failed = attempted
        self.packets = 0
        self.digest = ""
        self.summaries: list = []
        self.report = None
        self.peak_rss_mb = 0.0


def _import_nrv2x() -> float:
    """Import the checkout's nrv2x; returns the import time in seconds."""
    if not (SRC / "nrv2x" / "engine.py").is_file():
        raise SystemExit(f"perfbench: no nrv2x sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import nrv2x.engine
    elapsed = time.perf_counter() - t0
    if Path(nrv2x.__file__).resolve().parent != (SRC / "nrv2x").resolve():
        raise SystemExit(f"perfbench: imported nrv2x from {nrv2x.__file__}, not {SRC}")
    return elapsed


def _set_up(workload: str, seed: int, horizon_ms: float | None) -> None:
    _import_nrv2x()
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[workload]
    wl.build_first_world(wl.config(seed, horizon_ms))


def probe_setup(workload: str, seed: int, horizon_ms: float | None) -> tuple[float, float]:
    """Seconds from before `import nrv2x` until the first world is built,
    at the reference host speed and as measured."""
    _, wall_s, measured_s = timed(_set_up, workload, seed, horizon_ms)
    return wall_s, measured_s


def setup_samples(args) -> list[tuple[float, float]]:
    """Set-up times from fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.horizon_ms is not None:
        cmd += ["--horizon-ms", repr(args.horizon_ms)]
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(tuple(map(float, out.stdout.split()[-2:])))
    return samples


def _untimed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - t0
    return result, elapsed, elapsed


def run_unit(wl, cfg, sample_speed: bool = True) -> Unit:
    """One unit; its time is scaled to the reference speed if `sample_speed`."""
    from perfbench import check

    gc.collect()  # the previous unit's cycles are not this unit's cost
    t0 = time.perf_counter()
    try:
        (summaries, report), wall_s, measured_s = (timed if sample_speed else _untimed)(
            wl.run_unit, cfg)
    except Exception:
        traceback.print_exc()
        elapsed = time.perf_counter() - t0
        return Unit(elapsed, elapsed, wl.replications)
    unit = Unit(wall_s, measured_s, len(summaries))
    unit.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    unit.failed = 0
    for i, s in enumerate(summaries):
        problems = check.violations(s)
        if problems:
            unit.failed += 1
            print(f"replication {i} fails the output check: {'; '.join(problems)}",
                  file=sys.stderr)
    unit.packets = sum(s.n_generated for s in summaries)
    unit.digest = check.digest(summaries)
    unit.summaries, unit.report = summaries, report
    return unit


def measure(wl, cfg, deadline: float, sample_speed: bool = True) -> list[Unit]:
    """Repeat the unit while the next one is expected to end by `deadline`."""
    units = []
    while True:
        units.append(run_unit(wl, cfg, sample_speed))
        expected = statistics.median(u.measured_s for u in units)
        if time.perf_counter() + expected > deadline:
            return units


def sim_outputs(cfg, unit: Unit) -> dict:
    """Simulated-time results of one unit (not host time)."""
    from nrv2x import engine

    r = unit.report or engine.aggregate(cfg, unit.summaries, 0.0, math.nan)
    return {"sim.mean_ms": r.mean_ms, "sim.p90_ms": r.p90_ms,
            "sim.drop_fraction": r.drop_fraction, "sim.util_dl": r.util_dl,
            "sim.digest": unit.digest}


def layer_metrics(tracer, units: list[Unit], import_s: float, untraced_wall: float) -> dict:
    """Per-unit figures of each layer from a traced run."""
    n = len(units)
    calls, self_s, incl = tracer.calls, tracer.self_s, tracer.inclusive_s
    alloc = calls("grid.allocate")
    events = calls("engine.heap_pop")
    enqueued = calls("control.dci_enqueue")
    traced_wall = statistics.median(u.measured_s for u in units)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "grid.allocate.calls": alloc / n,
        "grid.allocate.self_s": self_s("grid.allocate") / n,
        "grid.allocate.us_per_call": ratio(incl("grid.allocate"), alloc) * 1e6,
        "grid.allocate.slots_scanned_mean": ratio(tracer.scan["slots"], alloc),
        "grid.allocate.slots_scanned_max": tracer.scan["slots_max"],
        "grid.allocate.miss_ratio": ratio(tracer.scan["misses"], alloc),
        "grid.allocate.probes": tracer.scan["probes"] / n,
        "grid.release.calls": calls("grid.release") / n,
        "grid.release_expired.self_s": self_s("grid.release_expired") / n,
        "engine.events": events / n,
        "engine.events_per_pkt": ratio(events, sum(u.packets for u in units)),
        "engine.us_per_event": ratio(incl("engine.loop"), events) * 1e6,
        "engine.heap_peak": tracer.heap_peak,
        "engine.heap.self_s": (self_s("engine.heap_push") + self_s("engine.heap_pop")) / n,
        "engine.loop_self_s": self_s("engine.loop") / n,
        "engine.replication_setup_s": incl("engine.replication_setup") / n,
        "engine.aggregate.self_s": self_s("engine.aggregate") / n,
        "engine.relative_error.self_s": self_s("engine.relative_error") / n,
        "engine.import_s": import_s,
        "latency.data_chain.calls": calls("latency.data_chain") / n,
        "latency.data_chain.self_s": self_s("latency.data_chain") / n,
        "latency.grant_chain.calls": calls("latency.grant_chain") / n,
        "latency.grant_chain.self_s": self_s("latency.grant_chain") / n,
        "latency.sr_chain.calls": calls("latency.sr_chain") / n,
        "latency.nack_chain.calls": calls("latency.nack_chain") / n,
        "control.dci_enqueue.calls": enqueued / n,
        "control.dci_enqueue.self_s": self_s("control.dci_enqueue") / n,
        "control.dci_wait_slots_mean": ratio(tracer.dci["wait_slots"], enqueued),
        "control.dci_wait_slots_max": tracer.dci["wait_slots_max"],
        "scenario.place_vehicles.self_s": self_s("scenario.place_vehicles") / n,
        "scenario.generate_arrivals.calls": calls("scenario.generate_arrivals") / n,
        "scenario.generate_arrivals.self_s": self_s("scenario.generate_arrivals") / n,
        "scenario.nearest_neighbours.self_s": self_s("scenario.nearest_neighbours") / n,
        "link.rbs_for_packet.calls": calls("link.rbs_for_packet") / n,
        "link.rbs_for_packet.self_s": self_s("link.rbs_for_packet") / n,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def benchmark(args) -> dict:
    """Run one workload; returns the result object printed last."""
    import_start = time.perf_counter()
    deadline = import_start + args.seconds
    import_s = _import_nrv2x()
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    cfg = wl.config(args.seed, args.horizon_ms)
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: {wl.why}")

    if args.trace:
        from perfbench.tracing import Tracer

        untraced = run_unit(wl, cfg, sample_speed=False)
        with Tracer() as tracer:
            tracer.add_span("engine.import", import_start, import_start + import_s)
            units = [untraced] + measure(wl, cfg, deadline, sample_speed=False)
    else:
        setup = setup_samples(args)
        units = [run_unit(wl, cfg)]  # warm-up: checked, not timed
        units += measure(wl, cfg, deadline)
    timed_units = units[1:]

    good = [u for u in units if u.failed == 0]
    if not good:
        raise SystemExit("perfbench: every unit failed")
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    digests = {u.digest for u in good}
    if len(digests) > 1:
        print("the same seed gave different results: " + ", ".join(sorted(digests)),
              file=sys.stderr)

    timed_good = [u for u in timed_units if u.failed == 0]
    if not timed_good:
        raise SystemExit("perfbench: every timed unit failed")
    if args.trace:
        metrics = layer_metrics(tracer, timed_units, import_s, units[0].measured_s)
        units_of = PER_LAYER_UNITS
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{wl.name}-seed{args.seed}.json",
                    {"workload": wl.name, "seed": args.seed, "units": len(units) - 1})
    else:
        metrics = {
            "pkts_per_s": statistics.median(u.packets / u.wall_s for u in timed_good),
            "wall_s": statistics.median(u.wall_s for u in timed_good),
            "setup_s": statistics.median(w for w, _ in setup),
            # after the warm-up unit, so that it does not grow with the unit count
            "peak_rss_mb": units[0].peak_rss_mb,
        }
        units_of = END_TO_END_UNITS
        print(f"as measured: setup_s median {statistics.median(m for _, m in setup):.4g}; "
              f"unit time measured over reference-speed time, median "
              f"{statistics.median(u.measured_s / u.wall_s for u in timed_good):.4g}")

    walls = sorted(u.measured_s for u in timed_good)
    print(f"units {len(units)} (timed {len(timed_units)}), replications attempted "
          f"{attempted}, failed {failed}; unit wall s as measured: min {walls[0]:.4g} "
          f"median {statistics.median(walls):.4g} max {walls[-1]:.4g}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:<14.6g} {units_of[name]}")
    print(f"{'error_rate':36s} {failed / attempted:<14.6g} ratio")
    for name, value in sim_outputs(cfg, good[-1]).items():
        if name == "sim.digest":
            print(f"{name:36s} {value}")
        else:
            print(f"{name:36s} {value:<14.6g} (simulated time)")

    return {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--horizon-ms", type=float, default=None,
                   help="shorter simulated horizon, for smoke tests")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        print(*map(repr, probe_setup(args.workload, args.seed, args.horizon_ms)))
        return 0
    result = benchmark(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
