"""Tests of the benchmark itself: output check, tracing hygiene, CLI output.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import heapq
import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nrv2x import control, engine, grid, latency, link, scenario
from perfbench import check, hostspeed, run, tracing
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
# short enough for a test, long enough to pass every workload's warmup
TINY_HORIZON_MS = {"flat_load": 230.0, "overload_mini7": 60.0,
                   "dynamic_harq_unicast": 230.0}


def _tiny(name):
    wl = WORKLOADS[name]
    return wl, wl.config(7, TINY_HORIZON_MS[name])


@pytest.fixture(scope="module")
def summary():
    _, cfg = _tiny("dynamic_harq_unicast")
    return engine.run_replication(cfg, np.random.default_rng(3))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


# -- output check -------------------------------------------------------------


def test_real_replication_passes_check(summary):
    assert summary.n_delivered > 0
    assert check.violations(summary) == []


@pytest.mark.parametrize("corrupt", [
    lambda s: replace(s, n_generated=s.n_generated + 1),
    lambda s: replace(s, n_delivered=s.n_delivered - 1, n_dropped=s.n_dropped + 1),
    lambda s: replace(s, n_unallocatable=s.n_dropped + s.n_failed + 1),
    lambda s: replace(s, total_ms=np.where(np.arange(s.total_ms.size) == 0, np.nan,
                                           s.total_ms)),
    lambda s: replace(s, ul_ms=-s.ul_ms),
    lambda s: replace(s, dl_ms=s.dl_ms + 1.0),
    lambda s: replace(s, total_ms=s.total_ms + 1.0 / 672),
    lambda s: replace(s, util_dl=1.5),
    lambda s: replace(s, util_ul=-0.1),
], ids=["generated", "moved-delivery", "unallocatable", "nan", "negative",
        "leg-sum-dl", "leg-sum-total", "util-high", "util-low"])
def test_check_rejects_corrupted_summary(summary, corrupt):
    assert check.violations(corrupt(summary))


def test_digest_sees_every_field(summary):
    base = check.digest([summary])
    assert check.digest([replace(summary)]) == base
    assert check.digest([replace(summary, util_dl=summary.util_dl + 1e-12)]) != base
    assert check.digest([replace(summary, n_dropped=summary.n_dropped + 1)]) != base
    assert check.digest([summary, summary]) != base


# -- tracing ------------------------------------------------------------------


def _patchable():
    targets = (engine, engine._Replication, scenario, link, latency, grid.SlotGrid,
               control.DciQueue)
    return {(t, k): v for t in targets for k, v in vars(t).items()}


def test_tracer_restores_every_attribute():
    before = _patchable()
    wl, cfg = _tiny("dynamic_harq_unicast")
    with tracing.Tracer() as tracer:
        assert engine.heapq is not heapq
        assert vars(grid.SlotGrid)["allocate"] is not before[(grid.SlotGrid, "allocate")]
        traced = wl.run_unit(cfg)[0]
    after = _patchable()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert engine.heapq is heapq
    assert tracer.calls("control.dci_enqueue") > 0
    # results are unchanged by tracing, and an untraced run records nothing
    calls = dict(tracer.counters)
    assert check.digest(wl.run_unit(cfg)[0]) == check.digest(traced)
    assert tracer.counters == calls


def test_tracer_restores_after_an_error():
    before = _patchable()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert _patchable() == before


def test_self_time_excludes_children():
    wl, cfg = _tiny("flat_load")
    with tracing.Tracer() as tracer:
        wl.run_unit(cfg)
    for layer in ("engine.loop", "latency.data_chain", "engine.replication"):
        assert 0 < tracer.self_s(layer) < tracer.inclusive_s(layer)
    assert tracer.self_s("grid.allocate") == pytest.approx(tracer.inclusive_s("grid.allocate"))
    names = [s["name"] for s in tracer.spans]
    assert names.count("engine.replication") == wl.replications
    assert names.count("engine.aggregate") == 1
    rep = next(s for s in tracer.spans if s["name"] == "engine.replication")
    loops = [s for s in tracer.spans if s["name"] == "engine.loop"]
    assert loops[0]["parent"] == rep["id"]
    assert rep["counters"]["grid.allocate"][0] > 0


# -- host-speed sampling ------------------------------------------------------


def test_host_speed_restores_the_signal_and_disarms_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as speed:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) > 5
    ordered = sorted(speed.samples)
    assert hostspeed.REFERENCE_S / ordered[-1] <= speed.scale <= hostspeed.REFERENCE_S / ordered[0]


def test_timed_takes_probe_time_out_and_scales_the_rest():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    result, wall_s, measured_s = hostspeed.timed(busy, 0.3)
    assert result == "done"
    # about 5% of the time goes to probes, and it is not counted
    assert 0.2 < measured_s < 0.3
    assert 0.2 < wall_s / measured_s < 5


def test_host_speed_imports_only_the_standard_library():
    code = ("import sys; sys.path.insert(0, '.'); import perfbench.hostspeed; "
            "print(any(m.split('.')[0] in ('numpy', 'scipy', 'nrv2x') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


# -- command line -------------------------------------------------------------


def _metric_lines(stdout):
    lines = stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(name):
    out = _bench("--workload", name, "--seed", "5", "--seconds", "0.1", "--trace", "0",
                 "--horizon-ms", str(TINY_HORIZON_MS[name]))
    assert out.returncode == 0, out.stderr
    lines, result = _metric_lines(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    for metric, unit in {**run.END_TO_END_UNITS, "error_rate": "ratio"}.items():
        line = next(l for l in lines if l.split()[0] == metric)
        assert line.split()[-1] == unit
    for metric in ("sim.mean_ms", "sim.p90_ms", "sim.drop_fraction", "sim.util_dl",
                   "sim.digest"):
        assert any(l.split()[0] == metric for l in lines)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_shows_the_layer_split():
    results = {}
    for name in ("flat_load", "dynamic_harq_unicast"):
        out = _bench("--workload", name, "--seed", "5", "--seconds", "0.1", "--trace", "1",
                     "--horizon-ms", str(TINY_HORIZON_MS[name]))
        assert out.returncode == 0, out.stderr
        _, result = _metric_lines(out.stdout)
        assert result["correct"] is True
        assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER_UNITS
        results[name] = {k: v["value"] for k, v in result["metrics"].items()}
    assert results["flat_load"]["grid.allocate.slots_scanned_mean"] < 1.01
    assert results["flat_load"]["control.dci_enqueue.calls"] == 0
    assert results["dynamic_harq_unicast"]["control.dci_enqueue.calls"] > 0
    assert results["dynamic_harq_unicast"]["latency.nack_chain.calls"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _bench("--workload", "flat_load", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
