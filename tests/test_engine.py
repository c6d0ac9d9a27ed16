import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import nrv2x
from nrv2x import engine, phy
from nrv2x.engine import (MetricsReport, ReplicationSummary, RunConfig, aggregate,
                          check_requirement, percentile_with_drops, relative_error,
                          run, run_replication, write_packet_trace)

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"

FAST = dict(horizon_ms=600.0, warmup_ms=100.0, min_replications=2, max_replications=2)


def small_run(**overrides):
    fields = {**FAST, **overrides}
    return run(RunConfig(**fields))


def test_determinism_bitwise():
    cfg = RunConfig(density_veh_km_lane=20, seed=42, **FAST)

    def stable(report):
        row = report.to_row()
        row.pop("runtime_s")  # wall clock is the one non-deterministic field
        return row

    assert stable(run(cfg)) == stable(run(cfg))


def test_different_seed_differs():
    a = small_run(density_veh_km_lane=20, seed=1)
    b = small_run(density_veh_km_lane=20, seed=2)
    assert a.mean_ms != b.mean_ms


def test_disposition_conservation():
    r = small_run(density_veh_km_lane=40, interval_ms=20.0)
    assert r.n_delivered + r.n_dropped + r.n_failed == r.n_packets
    assert r.n_packets > 0


def test_delivered_total_is_leg_sum():
    trace = []
    cfg = RunConfig(density_veh_km_lane=10, **FAST)
    run_replication(cfg, np.random.default_rng(0), trace_rows=trace)
    by_pkt = {}
    for row in trace:
        by_pkt.setdefault((row["vehicle"], row["gen_ms"]), []).append(row)
    checked = 0
    for rows in by_pkt.values():
        if rows[0]["disposition"] != "delivered":
            continue
        ul = [r for r in rows if r["direction"] == "UL"]
        dl = [r for r in rows if r["direction"] == "DL"]
        assert len(ul) == 1 and len(dl) >= 1
        checked += 1
    assert checked > 100


def test_alignment_bound_holds_for_every_packet():
    for slot_type in ("full", "mini7"):
        trace = []
        cfg = RunConfig(density_veh_km_lane=20, slot_type=slot_type,
                        interval_ms=20.0, **FAST)
        run_replication(cfg, np.random.default_rng(1), trace_rows=trace)
        slot_ms = phy.slot_duration(phy.numerology(cfg.scs_khz).mu)
        for row in trace:
            if row["disposition"] == "delivered":
                assert row["align_ms"] <= slot_ms + 1e-12


def test_warmup_excluded():
    cfg = RunConfig(density_veh_km_lane=10, horizon_ms=600.0, warmup_ms=300.0,
                    min_replications=2, max_replications=2)
    r = run(cfg)
    # 3 arrivals per vehicle fall in [300, 600) at T_p=100
    assert r.n_packets <= 104 * 3 * 2 + 40


def test_monotone_in_density_and_bandwidth():
    means_by_density = [
        small_run(density_veh_km_lane=d, interval_ms=20.0, seed=3).mean_ms
        for d in (10, 40, 80)
    ]
    assert means_by_density[0] <= means_by_density[1] + 0.02
    assert means_by_density[1] <= means_by_density[2] + 0.02
    wide = small_run(density_veh_km_lane=80, interval_ms=20.0, bandwidth_mhz=40, seed=3)
    narrow = small_run(density_veh_km_lane=80, interval_ms=20.0, bandwidth_mhz=20, seed=3)
    assert wide.mean_ms <= narrow.mean_ms + 0.02


def test_hep_mean_exceeds_lep_under_load():
    lep = small_run(density_veh_km_lane=60, interval_ms=20.0, mcs_table="LEP", seed=4)
    hep = small_run(density_veh_km_lane=60, interval_ms=20.0, mcs_table="HEP", seed=4)
    assert hep.mean_ms > lep.mean_ms


def test_percentile_with_drops():
    vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
    assert percentile_with_drops(vals, 1, 0.90) == 9.0
    assert percentile_with_drops(vals, 2, 0.90) == math.inf
    assert percentile_with_drops(np.empty(0), 5, 0.5) == math.inf
    assert math.isnan(percentile_with_drops(np.empty(0), 0, 0.5))
    # pooled percentile equals the percentile of concatenated samples
    a, b = np.arange(100.0), np.arange(100.0, 300.0)
    pooled = percentile_with_drops(np.concatenate([a, b]), 0, 0.90)
    rank = math.ceil(0.9 * 300) - 1
    assert pooled == np.sort(np.concatenate([a, b]))[rank]


def test_check_requirement_rules():
    def report(p90, p9999):
        return MetricsReport("k", 1, 100, 100, 0, 0, 0, 1.0, 0.5, 0.5, p90, p9999,
                             0.0, 0.0, 0.1, 0.1, 0.0, False, False, 0.0)

    ok, margin = check_requirement(report(6.8, 50.0), "LLoA")
    assert ok and margin == pytest.approx(23.0 - 6.8)
    ok, _ = check_requirement(report(math.inf, 1.0), "LLoA")
    assert not ok
    ok, _ = check_requirement(report(1.0, 8.5), "HLoA")
    assert not ok
    ok, _ = check_requirement(report(1.0, 3.5), "HLoA")
    assert ok


def test_aggregate_single_and_pair():
    cfg = RunConfig(**FAST)
    one = ReplicationSummary(n_generated=4, n_delivered=4,
                             total_ms=np.array([1.0, 2.0, 3.0, 4.0]),
                             ul_ms=np.array([0.5] * 4), dl_ms=np.array([0.5] * 4),
                             util_ul=0.5, util_dl=0.25)
    solo = aggregate(cfg, [one], 0.0, math.inf)
    assert solo.mean_ms == 2.5 and solo.n_packets == 4
    pair = aggregate(cfg, [one, one], 0.0, 0.5)
    assert pair.mean_ms == 2.5
    assert pair.n_packets == 8
    assert pair.util_dl == 0.25


def test_relative_error_behaviour():
    assert relative_error([1.0]) == math.inf
    assert relative_error([1.0, math.nan]) == math.inf
    tight = relative_error([1.0, 1.0001, 0.9999, 1.0])
    loose = relative_error([1.0, 2.0, 0.5, 1.5])
    assert tight < 0.01 < loose


def test_stopping_rule_runs_at_least_minimum():
    cfg = RunConfig(density_veh_km_lane=10, horizon_ms=400.0, warmup_ms=100.0,
                    min_replications=3, max_replications=10)
    r = run(cfg)
    assert r.n_replications >= 3
    assert r.ci_relative_error < 0.01 or r.n_replications == 10


def test_unallocatable_reported_not_clamped():
    # 10 MHz at 60 kHz leaves 11 RBs; cell-edge HEP packets cannot fit
    r = small_run(scs_khz=60, bandwidth_mhz=10, mcs_table="HEP",
                  density_veh_km_lane=10, seed=5)
    assert r.n_unallocatable > 0
    assert r.n_dropped >= r.n_unallocatable > 0


def test_packet_trace_csv(tmp_path):
    trace = []
    cfg = RunConfig(density_veh_km_lane=10, **FAST)
    run_replication(cfg, np.random.default_rng(2), trace_rows=trace)
    path = tmp_path / "trace.csv"
    write_packet_trace(path, trace)
    text = path.read_text().splitlines()
    assert text[0].startswith("vehicle,")
    assert len(text) == len(trace) + 1


def test_unicast_dl_not_faster_than_broadcast():
    bc = small_run(dl_cast="broadcast", density_veh_km_lane=40, seed=6)
    uc = small_run(dl_cast="unicast", unicast_m=4, density_veh_km_lane=40, seed=6)
    assert uc.mean_dl_ms >= bc.mean_dl_ms - 1e-9


def test_components_non_negative_and_leg_counts():
    trace = []
    cfg = RunConfig(dl_cast="unicast", unicast_m=3, density_veh_km_lane=10, **FAST)
    run_replication(cfg, np.random.default_rng(7), trace_rows=trace)
    by_pkt = {}
    for row in trace:
        for field in ("sched_ms", "tx_proc_ms", "align_ms", "wait_ms",
                      "airtime_ms", "rx_proc_ms", "retx_ms", "total_ms"):
            assert row[field] >= 0
        by_pkt.setdefault((row["vehicle"], row["gen_ms"]), []).append(row)
    for rows in by_pkt.values():
        if rows[0]["disposition"] == "delivered":
            # exactly one uplink row plus one downlink row per receiver
            assert len(rows) == 1 + 3


def test_overload_replication_pinned():
    """One short replication of the congested 60 kHz mini7 point (the
    criterion 8a configuration): counts and latency sum are pinned bit for
    bit, so an allocator speed-up cannot change results unnoticed."""
    cfg = RunConfig(scs_khz=60, slot_type="mini7", interval_ms=20.0,
                    density_veh_km_lane=60, horizon_ms=100.0, warmup_ms=40.0, seed=1)
    s = run_replication(cfg, np.random.default_rng(cfg.seed))
    assert (s.n_generated, s.n_delivered, s.n_dropped, s.n_failed) == (1872, 1344, 528, 0)
    assert float(s.total_ms.sum()) == 27186.175595238095


@pytest.mark.parametrize("fields", [
    dict(density_veh_km_lane=-1.0),
    dict(warmup_ms=600.0, horizon_ms=600.0),
    dict(warmup_ms=700.0, horizon_ms=600.0),
    dict(min_replications=5, max_replications=4),
    dict(density_veh_km_lane=0.0),
    dict(density_veh_km_lane=0.01),
], ids=["negative_density", "warmup_equals_horizon", "warmup_past_horizon",
        "min_above_max_replications", "zero_density", "density_rounding_to_no_vehicle"])
def test_run_config_rejects_bad_values(fields):
    with pytest.raises(phy.ConfigurationError):
        RunConfig(**fields)


def _bits(row: dict) -> dict:
    """Report fields keyed for a bitwise comparison; every NaN compares equal."""
    return {k: (type(v).__name__, v.hex() if isinstance(v, float) else v)
            for k, v in row.items()}


def _golden_cases() -> list[dict]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", _golden_cases(),
                         ids=lambda case: case["report"]["config_key"])
def test_golden_report(case):
    """Reports pinned bit for bit: any change to a field is a change of the
    model."""
    row = run(RunConfig(**case["config"])).to_row()
    row.pop("runtime_s")
    assert _bits(row) == _bits(case["report"])


def test_import_loads_no_scipy():
    src = str(Path(nrv2x.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, nrv2x.engine, nrv2x.experiment, nrv2x.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_relative_error_matches_student_t_formula():
    from scipy import stats

    rng = np.random.default_rng(8)
    for n in range(2, 66):
        means = rng.normal(5.0, 0.5, n).tolist()
        mean = float(np.mean(means))
        half = stats.t.ppf(0.975, n - 1) * np.std(means, ddof=1) / math.sqrt(n)
        assert relative_error(means) == float(half / abs(mean))


def test_fresh_replication_holds_one_arrival_per_vehicle():
    cfg = RunConfig(density_veh_km_lane=20, traffic="aperiodic", interval_ms=20.0, **FAST)
    rep = engine._Replication(cfg, np.random.default_rng(9))
    gens = Counter(payload[0] for _, _, kind, payload in rep._heap if kind == engine._GEN)
    assert set(gens) == {v.id for v in rep.vehicles}
    assert max(gens.values()) == 1
    # the arrivals' reserved sequence numbers come before every other event
    reserved = sum(rep._gen_count)
    assert reserved > len(rep.vehicles)
    assert all((seq <= reserved) == (kind == engine._GEN) for _, seq, kind, _ in rep._heap)


if __name__ == "__main__":
    # Rewrite the golden reports from the current engine.  Only a change
    # that declares a model change may do this.
    cases = _golden_cases()
    for case in cases:
        case["report"] = run(RunConfig(**case["config"])).to_row()
        case["report"].pop("runtime_s")
    GOLDEN.write_text(json.dumps(cases, indent=1))


@pytest.mark.parametrize("seed", [0, 1, 31, 2024, 2**40 + 7])
def test_scalar_draws_continue_the_vector_stream(seed):
    """n scalar `random()` calls give the n values of one `random(n)` call
    and leave the generator at the same point: downlink HARQ draws one
    scalar per pending receiver on this property."""
    vector, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in range(1, 7):
        assert [scalar.random() for _ in range(n)] == vector.random(n).tolist()
    assert scalar.random() == vector.random()
