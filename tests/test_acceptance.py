"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with ``pytest -s`` to see them inline).

Simulation points use shortened horizons (statistically calibrated: the
anchored statistics are stable well below the default 10 s horizon) with the
stopping rule's minimum of ten replications.
"""

import math
import random
from collections import deque

import numpy as np
import pytest

from nrv2x import link, phy
from nrv2x.control import DciQueue, sr_cycle_slots, sr_wait_slots
from nrv2x.engine import RunConfig, run, run_replication
from nrv2x.grid import SlotGrid
from nrv2x.phy import ControlConfig
from helpers import ONE_VEHICLE, replicate, rows_by_packet, ticks

pytestmark = pytest.mark.acceptance

ACC = dict(horizon_ms=1500.0, warmup_ms=200.0, min_replications=10,
           max_replications=12)
FAST = dict(horizon_ms=1000.0, warmup_ms=200.0, min_replications=10,
            max_replications=12)
CONGESTED = dict(horizon_ms=500.0, warmup_ms=150.0, min_replications=10,
                 max_replications=10)


def _line(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


# -- criterion 1: flat-load latency anchor -------------------------------------

def test_criterion_1_flat_load_latency():
    """Broadcast, semi-static, 30 kHz full-slot, 20 MHz, 100 ms period:
    mean latency within [1.4, 1.7] ms for both tables at every density,
    under two minutes per point."""
    failures = []
    details = []
    walls = []
    for table in ("LEP", "HEP"):
        for density in (10, 20, 40, 60, 80):
            cfg = RunConfig(mcs_table=table, density_veh_km_lane=density,
                            interval_ms=100.0, **ACC)
            r = run(cfg)
            wall = r.runtime_s
            details.append(f"{table}@{density}: {r.mean_ms:.3f} ms")
            walls.append(f"{table}@{density}: {wall:.0f} s")
            if not 1.4 <= r.mean_ms <= 1.7:
                failures.append(f"{table}@{density} mean {r.mean_ms:.3f}")
            if wall >= 120:
                failures.append(f"{table}@{density} took {wall:.0f} s")
    # the wall times differ from run to run, so they stay off the ACCEPTANCE line
    print(f"criterion 1 wall times: {'; '.join(walls)}")
    _line("1 flat-load anchor", not failures, "; ".join(details))
    assert not failures, failures


# -- criterion 2: mini-slot percentile anchor ----------------------------------

def test_criterion_2_minislot_percentiles():
    """7-symbol mini-slots, 20 veh/km/lane, 20 ms period: 90th percentile
    within +-20% of 2.0 / 1.01 / 0.83 ms for 15 / 30 / 60 kHz."""
    targets = {15: 2.0, 30: 1.01, 60: 0.83}
    failures = []
    details = []
    for scs, target in targets.items():
        cfg = RunConfig(scs_khz=scs, slot_type="mini7", density_veh_km_lane=20,
                        interval_ms=20.0, **FAST)
        r = run(cfg)
        details.append(f"{scs} kHz: p90 {r.p90_ms:.3f} (target {target})")
        if not 0.8 * target <= r.p90_ms <= 1.2 * target:
            failures.append(details[-1])
    _line("2 mini-slot p90 anchor", not failures, "; ".join(details))
    assert not failures, failures


# -- criterion 3: scheduling-gap anchor ------------------------------------------

def test_criterion_3_scheduling_gap():
    """Low density, 30 kHz full-slot: uplink-only latency near 0.8 ms with
    pre-assigned grants versus near 1.8 ms with per-packet grants (ideal
    control isolates the mechanism gap)."""
    semi = run(RunConfig(scheduling="semi_static", density_veh_km_lane=10,
                         interval_ms=20.0, **FAST))
    dyn = run(RunConfig(scheduling="dynamic", control_variant="conf3",
                        traffic="aperiodic", density_veh_km_lane=10,
                        interval_ms=20.0, **FAST))
    ok = (0.6 <= semi.mean_ul_ms <= 1.0) and (1.6 <= dyn.mean_ul_ms <= 2.0)
    _line("3 scheduling gap", ok,
          f"semi-static UL {semi.mean_ul_ms:.3f} ms, dynamic UL {dyn.mean_ul_ms:.3f} ms")
    assert 0.6 <= semi.mean_ul_ms <= 1.0
    assert 1.6 <= dyn.mean_ul_ms <= 2.0


# -- criterion 4: RB-footprint calibration ----------------------------------------

def test_criterion_4_rb_footprint_calibration():
    """Calibrated default distance map: mean RBs per 300-byte packet over the
    uniform vehicle distribution near the 2.5 / 6.6 anchors and the
    2.46 / 2.82 normal/extended-prefix pair, all within +-15%."""
    ncp_region = 13   # 14-symbol slot minus one control symbol
    ecp_region = 11   # 12-symbol slot minus one control symbol
    lep_ncp = link.mean_rbs_over_cell("LEP", ncp_region)
    hep_ncp = link.mean_rbs_over_cell("HEP", ncp_region)
    lep_ecp = link.mean_rbs_over_cell("LEP", ecp_region)
    checks = [
        ("LEP 2.5", lep_ncp, 2.5),
        ("HEP 6.6", hep_ncp, 6.6),
        ("LEP NCP 2.46", lep_ncp, 2.46),
        ("LEP ECP 2.82", lep_ecp, 2.82),
    ]
    failures = [f"{name}: {got:.3f}" for name, got, want in checks
                if not want * 0.85 <= got <= want * 1.15]
    _line("4 RB-footprint calibration", not failures,
          f"LEP {lep_ncp:.2f}, HEP {hep_ncp:.2f}, ECP {lep_ecp:.2f}")
    assert not failures, failures


# -- criterion 5: broadcast vs unicast efficiency ----------------------------------

def test_criterion_5_broadcast_vs_unicast():
    """At 40 veh/km/lane and 100 ms period, broadcast cuts downlink RB use by
    at least 60% versus four unicast receivers and 70% versus six."""
    utils = {}
    for cast, m in (("broadcast", 0), ("unicast", 4), ("unicast", 6)):
        cfg = RunConfig(dl_cast=cast, unicast_m=m, density_veh_km_lane=40,
                        interval_ms=100.0, **FAST)
        utils[m] = run(cfg).util_dl
    red4 = 1 - utils[0] / utils[4]
    red6 = 1 - utils[0] / utils[6]
    ok = red4 >= 0.60 and red6 >= 0.70
    _line("5 broadcast efficiency", ok,
          f"reduction {red4:.1%} vs M=4, {red6:.1%} vs M=6")
    assert red4 >= 0.60 and red6 >= 0.70


# -- criterion 6: exact formula properties -------------------------------------------

def test_criterion_6_exact_properties():
    failures = []

    # repetition delta is exactly (k-1) slots, at every numerology: every
    # hop of a lone vehicle's packet against the same world without
    # repetitions, read from the trace rows
    for scs in (15, 30, 60):
        slot = phy.numerology(scs).slot_ticks
        _, plain = replicate(RunConfig(scs_khz=scs, **ONE_VEHICLE))
        plain = rows_by_packet(plain)
        for k in (2, 4, 8):
            _, rows = replicate(RunConfig(scs_khz=scs, retransmission="k_repetitions",
                                          k=k, **ONE_VEHICLE))
            hops = [(a, b) for key, legs in rows_by_packet(rows).items()
                    if legs[0]["disposition"] == plain[key][0]["disposition"] == "delivered"
                    for a, b in zip(legs, plain[key])]
            if len(hops) < 10 or any(
                    ticks(a["total_ms"]) - ticks(b["total_ms"]) != (k - 1) * slot
                    or ticks(a["retx_ms"]) != (k - 1) * slot or a["attempts"] != k
                    for a, b in hops):
                failures.append(f"k-rep delta k={k} scs={scs}")

    # SR wait distribution uniform over its support
    cycle = sr_cycle_slots(ControlConfig(24, 1, 1, 1), 100)
    rng = np.random.default_rng(11)
    waits = np.array([sr_wait_slots(float(p), cycle)
                      for p in rng.uniform(0, 1, 500_000)])
    counts = np.bincount(waits, minlength=cycle)
    expected = len(waits) / cycle
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    if chi2 > 39.25:  # 99.9% quantile, 16 dof
        failures.append(f"SR wait not uniform (chi2 {chi2:.1f})")
    if waits.max() != cycle - 1 or waits.min() != 0:
        failures.append("SR wait support wrong")

    # HARQ delivery probability: 1 - 0.1^4 within 3 sigma over 1e6 trials
    draws = np.random.default_rng(12).random((1_000_000, 4)) < 0.1
    failed = int(draws.all(axis=1).sum())
    p_fail = failed / 1_000_000
    sigma = math.sqrt(1e-4 * (1 - 1e-4) / 1_000_000)
    if abs(p_fail - 1e-4) > 3 * sigma:
        failures.append(f"HARQ failure rate {p_fail:.2e}")
    # the engine agrees: forced failures exhaust at exactly n + 1 attempts,
    # on the uplink and on the downlink
    for leg, direction in enumerate(("UL", "DL")):
        cfg = RunConfig(retransmission="harq", harq_max_retx=3, **ONE_VEHICLE)
        rep, rows = replicate(cfg, ok=lambda l, d=direction: l.hop.direction != d)
        packets = rows_by_packet(rows).values()
        if rep.summary.n_failed != len(packets) or not packets or any(
                legs[leg]["attempts"] != 4 or legs[0]["detail"] != direction.lower() + "_error"
                for legs in packets):
            failures.append(f"{direction} HARQ did not fail at exactly 4 forced failures")

    # frame alignment bounded by the slot for every packet in a live run
    for slot_type in ("full", "mini7"):
        trace = []
        cfg = RunConfig(slot_type=slot_type, density_veh_km_lane=20,
                        interval_ms=20.0, horizon_ms=500.0, warmup_ms=100.0)
        run_replication(cfg, np.random.default_rng(3), trace_rows=trace)
        slot_ms = phy.ticks_to_ms(phy.numerology(30).slot_ticks)
        bad = [r for r in trace if r["align_ms"] > slot_ms + 1e-12]
        if bad:
            failures.append(f"{slot_type}: {len(bad)} alignments above one slot")

    # fan-out: a delivered unicast packet's downlink latency is its worst leg
    rep, rows = replicate(RunConfig(dl_cast="unicast", unicast_m=4, density_veh_km_lane=20,
                                    horizon_ms=500.0, warmup_ms=100.0), seed=5)
    worst = [max(r["total_ms"] for r in legs[1:]) for legs in rows_by_packet(rows).values()
             if legs[0]["disposition"] == "delivered"]
    if not worst or worst != rep.summary.dl_ms.tolist():
        failures.append("fan-out latency is not the worst leg")

    _line("6 exact properties", not failures, "all checks exact" if not failures
          else "; ".join(failures))
    assert not failures, failures


# -- criterion 7: oracle equivalence ---------------------------------------------

def test_criterion_7_oracle_equivalence():
    failures = []

    # first-fit placement vs exhaustive rectangle search, 1e4 randomized cases
    from test_grid import oracle_first_fit
    rng = random.Random(29)
    mismatches = 0
    num, control = phy.numerology(30), ControlConfig(24, 1, 1, 1)
    region_len = len(phy.data_region(num, "UL", control))
    for _ in range(10_000):
        # one burst length per grid, region-long (the full slot) included
        grid = SlotGrid(num, 4, control, "UL", rng.randint(1, region_len))
        committed = []
        for _ in range(rng.randint(0, 5)):
            p, _ = grid.allocate(rng.randint(1, 4), rng.randint(0, 2 * grid.slot_ticks))
            committed.append(dict(slot=p.slot_idx, sym=p.sym_start,
                                  n_sym=p.n_symbols, rb=p.rb_start,
                                  n_rb=p.n_rb, repeats=1))
        n_rb = rng.randint(1, 4)
        earliest = rng.randint(0, 2 * grid.slot_ticks)
        want = oracle_first_fit(committed, n_rb, earliest, grid)
        p, _ = grid.allocate(n_rb, earliest)
        if (p.slot_idx, p.sym_start, p.rb_start) != want:
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches} first-fit mismatches")

    # transport block sizing vs the straight-line oracle, 1e3 random inputs
    from test_link import tbs_oracle
    rng = random.Random(31)
    entries = [m for t in link.MCS_TABLES.values() for m in t]
    for _ in range(1000):
        mcs = rng.choice(entries)
        n_rb, n_sym = rng.randint(1, 270), rng.randint(1, 14)
        layers, oh = rng.choice((1, 2)), rng.choice((0, 6, 12, 18))
        want = tbs_oracle(mcs.modulation_order, mcs.code_rate, n_rb, n_sym, layers, oh)
        if link.transport_block_size(mcs, n_rb, n_sym, layers, oh) != want:
            failures.append(f"TBS mismatch at mcs={mcs.index}")
            break

    # DCI queue vs an independent discrete-time FIFO, 1e3 random traces
    slot = phy.numerology(30).slot_ticks
    rng = random.Random(37)
    for _ in range(1000):
        ctrl = ControlConfig(rng.choice((6, 12, 24, 36)), 1, 1, 1)
        arrivals = sorted(rng.randint(0, 10 * slot) for _ in range(rng.randint(1, 80)))
        queue = DciQueue(ctrl, slot)
        got = [queue.enqueue(a) for a in arrivals]
        pending = deque(arrivals)
        want, s = [], 0
        while pending:
            served = 0
            while pending and served < ctrl.n_rb_pdcch // 6 and pending[0] < s * slot:
                pending.popleft()
                want.append(s * slot)
                served += 1
            s += 1
        if got != want:
            failures.append("DCI queue mismatch")
            break

    _line("7 oracle equivalence", not failures,
          "grid 1e4, TBS 1e3, queue 1e3 cases" if not failures else "; ".join(failures))
    assert not failures, failures


# -- criterion 8: requirement logic ------------------------------------------------

def test_criterion_8a_periodic_lloa():
    """20 ms period, 20 MHz: the low-automation service holds with below-10%
    drops for every SCS and slot type up to 60 veh/km/lane, except 60 kHz
    full-slot which congests past 10% drops at 60."""
    failures = []
    details = []
    for scs in (15, 30, 60):
        for slot_type in ("full", "mini7"):
            for density in ((60,) if slot_type == "full" else (20, 60)):
                cfg = RunConfig(scs_khz=scs, slot_type=slot_type,
                                density_veh_km_lane=density, interval_ms=20.0,
                                **CONGESTED)
                r = run(cfg)
                label = f"{scs}k-{slot_type}@{density}"
                details.append(f"{label}: drop {r.drop_fraction:.3f}")
                exception = scs == 60 and slot_type == "full" and density == 60
                if exception:
                    if r.drop_fraction <= 0.10:
                        failures.append(f"{label} should exceed 10% drops "
                                        f"(got {r.drop_fraction:.3f})")
                else:
                    if r.drop_fraction >= 0.10:
                        failures.append(f"{label} drops {r.drop_fraction:.3f}")
                    elif not r.lloa_pass:
                        failures.append(f"{label} misses the LLoA budget")
    _line("8a periodic LLoA", not failures, "; ".join(details))
    assert not failures, failures


def test_criterion_8b_hep_hloa_by_scs():
    """100 ms period, high-protection table, 7-symbol mini-slots (the
    configuration of the stringent-service density figures): 15 and 30 kHz
    meet the high-automation budget, 60 kHz at 20 MHz does not."""
    results = {}
    for scs in (15, 30, 60):
        cfg = RunConfig(scs_khz=scs, slot_type="mini7", mcs_table="HEP",
                        density_veh_km_lane=60, interval_ms=100.0, **FAST)
        results[scs] = run(cfg)
    detail = ", ".join(
        f"{scs} kHz p9999 {results[scs].p9999_ms:.2f}" for scs in results
    )
    ok = (results[15].hloa_pass and results[30].hloa_pass
          and not results[60].hloa_pass)
    _line("8b HEP HLoA by SCS", ok, detail)
    assert results[15].hloa_pass, detail
    assert results[30].hloa_pass, detail
    assert not results[60].hloa_pass, detail


def test_criterion_8c_control_dimensioning():
    """Aperiodic traffic with per-packet grants: the baseline control budget
    collapses (near 60% drops at 20 veh/km/lane and beyond) while the
    six/eight-fold budget carries 40 veh/km/lane without drops and only
    starts dropping at 60."""
    base = dict(scheduling="dynamic", traffic="aperiodic", interval_ms=20.0)
    conf1 = run(RunConfig(control_variant="conf1", density_veh_km_lane=20,
                          **base, **CONGESTED))
    conf1_40 = run(RunConfig(control_variant="conf1", density_veh_km_lane=40,
                             **base, **CONGESTED))
    conf2_40 = run(RunConfig(control_variant="conf2", density_veh_km_lane=40,
                             **base, **CONGESTED))
    conf2_60 = run(RunConfig(control_variant="conf2", density_veh_km_lane=60,
                             **base, **CONGESTED))
    detail = (f"conf1@20 drop {conf1.drop_fraction:.3f}, "
              f"conf1@40 drop {conf1_40.drop_fraction:.3f}, "
              f"conf2@40 drop {conf2_40.drop_fraction:.3f}, "
              f"conf2@60 drop {conf2_60.drop_fraction:.3f}")
    ok = (0.45 <= conf1.drop_fraction <= 0.80
          and conf1_40.drop_fraction >= 0.45
          and conf2_40.drop_fraction < 0.02
          and conf2_60.drop_fraction > 0.05)
    _line("8c control dimensioning", ok, detail)
    assert 0.45 <= conf1.drop_fraction <= 0.80, detail
    assert conf1_40.drop_fraction >= 0.45, detail
    assert conf2_40.drop_fraction < 0.02, detail
    assert conf2_60.drop_fraction > 0.05, detail
