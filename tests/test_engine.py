import hashlib
import heapq
import itertools
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nrv2x
from nrv2x import control, engine, phy
from nrv2x import scenario as scn
from nrv2x.engine import (MetricsReport, ReplicationSummary, RunConfig, aggregate,
                          check_requirement, percentile_with_drops, relative_error,
                          run, run_replication)
from helpers import ONE_VEHICLE, make_context, replicate, rows_by_packet, ticks

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"
GOLDEN_TRACES = Path(__file__).parent / "data" / "golden_trace_digests.json"

FAST = dict(horizon_ms=600.0, warmup_ms=100.0, min_replications=2, max_replications=2)


def small_run(**overrides):
    fields = {**FAST, **overrides}
    return run(RunConfig(**fields))


def test_determinism_bitwise():
    cfg = RunConfig(density_veh_km_lane=20, seed=42, **FAST)

    def stable(report):
        row = asdict(report)
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
        slot_ms = phy.ticks_to_ms(phy.numerology(cfg.scs_khz).slot_ticks)
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
    for low, high in [(3, 10), (1, 1)]:
        cfg = RunConfig(density_veh_km_lane=10, horizon_ms=400.0, warmup_ms=100.0,
                        min_replications=low, max_replications=high)
        r = run(cfg)
        assert low <= r.n_replications <= high
        assert r.ci_relative_error < 0.01 or r.n_replications == high
    # one replication mean has no confidence interval
    assert r.n_replications == 1 and r.ci_relative_error == math.inf


def test_unallocatable_reported_not_clamped():
    """10 MHz at 60 kHz leaves 11 RBs, where cell-edge HEP packets cannot
    fit.  Each such packet counts once, also a unicast packet with several
    receivers it cannot fit."""
    for cast in ({}, {"dl_cast": "unicast", "unicast_m": 3}):
        cfg = RunConfig(scs_khz=60, bandwidth_mhz=10, mcs_table="HEP", density_veh_km_lane=10,
                        horizon_ms=300.0, warmup_ms=100.0, **cast)
        rep, rows = replicate(cfg)
        s = rep.summary
        packets = {(r["vehicle"], r["gen_ms"]) for r in rows
                   if r["detail"].endswith("_unallocatable")}
        assert s.n_unallocatable == len(packets) > 0
        assert s.n_dropped >= s.n_unallocatable


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


def test_forced_uplink_retransmissions_starve():
    """An uplink retransmission looks only `scan_cap` slots ahead.  On a
    carrier overloaded by forced uplink failures some find no room and fail
    as `retx_starved`, a branch no golden row reaches; the counts are
    pinned."""
    n = 4
    cfg = RunConfig(retransmission="harq", harq_max_retx=n, scheduling="dynamic",
                    control_variant="conf2", interval_ms=5.0, mcs_table="HEP",
                    bandwidth_mhz=10, density_veh_km_lane=80, horizon_ms=150.0,
                    warmup_ms=50.0)
    rep, rows = replicate(cfg, ok=lambda leg: leg.hop.direction == "DL" or leg.attempts > n)
    s = rep.summary
    assert (s.n_delivered, s.n_dropped, s.n_failed) == (158, 16433, 29)
    starved = [r for r in rows if r["detail"] == "retx_starved"]
    assert len(starved) == 29
    assert all(r["leg"] == 0 and r["disposition"] == "delivery_failed"
               and 2 <= r["attempts"] <= n + 1 for r in starved)

def test_lep_without_retransmission_never_fails():
    """The rule `_Replication._attempt_ok` states: without a retransmission
    scheme no LEP transmission is drawn as an error (ROADMAP item 2)."""
    r = small_run(density_veh_km_lane=40, interval_ms=20.0, seed=9)
    assert r.n_packets > 10_000
    assert r.n_failed == 0


@pytest.mark.parametrize("mcs_table", ["LEP", "HEP"])
@pytest.mark.parametrize("scheme", [("none", 0), ("k_repetitions", 2), ("k_repetitions", 4),
                                    ("k_repetitions", 8), ("harq", 0)])
def test_attempt_outcome_draws(scheme, mcs_table):
    """`_attempt_ok` reads as many uniforms per call as the outcome rule
    needs, although which rule applies is decided once per replication: none
    for LEP without retransmissions, one for HEP without, k for k
    repetitions, and one per pending receiver under HARQ.  With the BLER set
    to 0.5, the outcome and the receivers left pending equal a replay of the
    uniforms read: HARQ keeps pending each receiver whose uniform falls below
    the BLER, and succeeds when none does."""
    retx, k = scheme
    cfg = RunConfig(retransmission=retx, k=k, harq_max_retx=2 if retx == "harq" else 0,
                    mcs_table=mcs_table, horizon_ms=300.0, warmup_ms=100.0)
    rep = engine._Replication(cfg, np.random.default_rng(0))
    rep._bler = bler = 0.5
    uniform, reads = rep.ctx.uniform, []

    def recording():
        reads.append(uniform())
        return reads[-1]

    rep.ctx.uniform = recording
    outcomes = set()
    for pending in (1, 2, 3, 5):
        expected = {"none": int(mcs_table == "HEP"), "k_repetitions": k,
                    "harq": pending}[retx]
        for _ in range(8):
            leg = engine._Leg(None, rep._dl, 1, 0, pending)
            reads.clear()
            ok = rep._attempt_ok(leg)
            assert len(reads) == expected, pending
            still = sum(u < bler for u in reads)
            replay = {"none": still == 0, "k_repetitions": still < k,
                      "harq": still == 0}[retx]
            assert ok == replay, (pending, reads)
            assert leg.pending == (still if retx == "harq" else pending), (pending, reads)
            outcomes.add((pending, ok))
    if retx == "harq":
        # both outcomes of a single pending receiver's one draw are replayed
        assert {(1, True), (1, False)} <= outcomes


def test_replications_replay_exactly():
    """Replication i of a point replays alone from SeedSequence(seed).spawn(i + 1)[i];
    aggregating the replays gives the point's report bit for bit."""
    cfg = RunConfig(density_veh_km_lane=20, dl_cast="unicast", unicast_m=2, seed=5, **FAST)
    reps = [run_replication(cfg, np.random.default_rng(
        np.random.SeedSequence(cfg.seed).spawn(i + 1)[i])) for i in range(2)]
    replay = asdict(aggregate(cfg, reps, 0.0, relative_error([r.mean_ms for r in reps])))
    whole = asdict(run(cfg))
    replay.pop("runtime_s")
    whole.pop("runtime_s")
    assert _bits(replay) == _bits(whole)


def test_single_replication_run():
    """A run capped at one replication reports it with an infinite relative
    error, the aggregate of replication 0 replayed on its own."""
    cfg = RunConfig(density_veh_km_lane=20, seed=9, **{**FAST, "min_replications": 1,
                                                       "max_replications": 1})
    whole = asdict(run(cfg))
    assert whole["n_replications"] == 1
    assert whole["ci_relative_error"] == math.inf
    seed = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    rep = run_replication(cfg, np.random.default_rng(seed))
    replay = asdict(aggregate(cfg, [rep], 0.0, math.inf))
    replay.pop("runtime_s")
    whole.pop("runtime_s")
    assert _bits(replay) == _bits(whole)


def test_overload_replication_pinned():
    """One short replication of the congested 60 kHz mini7 point (the
    criterion 8a configuration): counts and latency sum are pinned bit for
    bit, so an allocator speed-up cannot change results unnoticed."""
    cfg = RunConfig(scs_khz=60, slot_type="mini7", interval_ms=20.0,
                    density_veh_km_lane=60, horizon_ms=100.0, warmup_ms=40.0, seed=1)
    s = run_replication(cfg, np.random.default_rng(cfg.seed))
    assert (s.n_generated, s.n_delivered, s.n_dropped, s.n_failed) == (1872, 1364, 508, 0)
    assert float(s.total_ms.sum()) == 27504.223214285717


def test_dynamic_harq_unicast_replication_pinned():
    """The first replication of a short dynamic conf2 point with HARQ and
    unicast to the m = 3 nearest vehicles at 20 veh/km/lane, aperiodic:
    counts, latency sum and both utilisations are pinned bit for bit, so the
    grant, NACK and release paths cannot change results unnoticed under
    load."""
    cfg = RunConfig(scs_khz=30, slot_type="full", scheduling="dynamic",
                    control_variant="conf2", retransmission="harq", harq_max_retx=2,
                    dl_cast="unicast", unicast_m=3, traffic="aperiodic", interval_ms=20.0,
                    density_veh_km_lane=20, horizon_ms=230.0, warmup_ms=200.0, seed=1)
    seed = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    s = run_replication(cfg, np.random.default_rng(seed))
    assert (s.n_generated, s.n_delivered, s.n_dropped, s.n_failed,
            s.n_unallocatable) == (319, 318, 0, 1, 0)
    assert float(s.total_ms.sum()) == 1814.5505952380954
    assert (s.util_ul, s.util_dl) == (0.28104575163398693, 0.884640522875817)


def test_world_is_built_once_per_replication(monkeypatch):
    """A periodic replication draws every vehicle's arrivals in one call,
    and the RB footprint tables of a configuration are built once: a second
    replication of it sizes no packet."""
    calls = Counter()

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(engine.scn, "generate_arrivals")
    counting(engine.lnk, "rbs_for_packet")
    cfg = RunConfig(density_veh_km_lane=60, traffic="periodic", interval_ms=20.0, **FAST)
    engine._Replication(cfg, np.random.default_rng(1))
    assert calls["generate_arrivals"] == 1
    calls.clear()
    engine._Replication(cfg, np.random.default_rng(2))
    assert (calls["generate_arrivals"], calls["rbs_for_packet"]) == (1, 0)


@pytest.mark.parametrize("point", [
    dict(density_veh_km_lane=40),
    dict(density_veh_km_lane=40, retransmission="k_repetitions", k=2),
    dict(scs_khz=60, slot_type="mini7", density_veh_km_lane=60),
    dict(dl_cast="unicast", unicast_m=3, density_veh_km_lane=20),
], ids=["full", "k2", "mini7-60k", "unicast"])
def test_control_variant_acts_only_on_dynamic_signalling(point):
    """Semi-static scheduling without HARQ sends no scheduling request and no
    DCI, so conf1, conf2 and conf3 give one report bit for bit but for the
    key and the run time, congested (the mini7 point drops) or not."""
    rows = []
    for variant in ("conf1", "conf2", "conf3"):
        row = asdict(run(RunConfig(control_variant=variant, interval_ms=20.0, horizon_ms=200.0,
                                   warmup_ms=50.0, min_replications=2, max_replications=2,
                                   seed=5, **point)))
        row.pop("config_key")
        row.pop("runtime_s")
        rows.append(_bits(row))
    assert rows[0] == rows[1] == rows[2]
    # only the mini7 point is congested
    assert (float.fromhex(rows[0]["drop_fraction"][1]) > 0.1) == ("slot_type" in point)


@pytest.mark.parametrize("point, acts", [
    (dict(mcs_table="HEP"), False),
    (dict(retransmission="k_repetitions", k=2), False),
    (dict(retransmission="harq", harq_max_retx=2, dl_cast="unicast", unicast_m=3), False),
    (dict(retransmission="harq", harq_max_retx=2), True),
], ids=["hep-none", "k2", "harq-unicast", "harq-broadcast"])
def test_harq_group_size_acts_only_on_broadcast_harq(point, acts):
    """The HARQ group size sets how many receivers a broadcast HARQ leg
    waits for, so group sizes 1 and 3 give one report bit for bit but for
    the key and the run time unless the retransmission is HARQ and the cast
    broadcast; for broadcast HARQ the reports differ."""
    rows = []
    for group in (1, 3):
        row = asdict(run(RunConfig(harq_group_size=group, density_veh_km_lane=20,
                                   interval_ms=20.0, horizon_ms=400.0, warmup_ms=100.0,
                                   min_replications=2, max_replications=2, seed=4, **point)))
        row.pop("config_key")
        row.pop("runtime_s")
        rows.append(_bits(row))
    assert (rows[0] != rows[1]) == acts


# -- exact relations and the zero-load closed form ------------------------------------
#
# What follows holds whatever the world draw: relations between runs that
# share a world, and a whole packet's latency derived from `phy`'s tables
# alone.  Unlike the golden rows, these survive a declared re-draw.

_PACKET_FIELDS = ("disposition", "detail")     # the packet's, not the leg's


@pytest.mark.parametrize("seed", [0, 3])
def test_uplink_legs_ignore_the_downlink_cast(seed):
    """Semi-static scheduling, LEP and no retransmission: the uplink neither
    reads downlink state nor draws from the stream, so every uplink leg is
    bitwise the same whether the packet is broadcast or unicast to one or
    to three receivers.  The mini7 uplink is loaded enough for legs to wait
    for resources, and unicast to three receivers drops packets downlink;
    only the packet's outcome, not its uplink leg, may differ."""
    uplinks = []
    for cast in ({}, dict(dl_cast="unicast", unicast_m=1), dict(dl_cast="unicast", unicast_m=3)):
        cfg = RunConfig(slot_type="mini7", density_veh_km_lane=40, interval_ms=20.0,
                        horizon_ms=200.0, warmup_ms=100.0, **cast)
        _, rows = replicate(cfg, seed=seed)
        legs = [r for r in rows if r["leg"] == 0]
        assert len(legs) > 1000 and any(r["wait_ms"] > 0 for r in legs)
        uplinks.append({(r["vehicle"], r["gen_ms"]): _bits(
            {k: v for k, v in r.items() if k not in _PACKET_FIELDS}) for r in legs})
    assert uplinks[0] == uplinks[1] == uplinks[2]


@pytest.mark.parametrize("load", [
    ONE_VEHICLE,
    dict(density_veh_km_lane=2, interval_ms=100.0, horizon_ms=1000.0, warmup_ms=100.0),
    dict(density_veh_km_lane=10, interval_ms=20.0, horizon_ms=300.0, warmup_ms=100.0),
], ids=["one_vehicle", "2_per_100ms", "10_per_20ms"])
def test_latency_without_waits_ignores_the_bandwidth(load):
    """When no packet waits for free resources, bandwidth only sets how many
    RBs lie idle: the delivered latencies are bitwise equal at 10, 20 and
    40 MHz."""
    totals = []
    for bw in (10, 20, 40):
        rep, rows = replicate(RunConfig(bandwidth_mhz=bw, **load), seed=7)
        assert rows and all(r["wait_ms"] == 0 for r in rows)
        totals.append(rep.summary.total_ms)
    assert totals[0].size >= 8
    assert totals[0].tobytes() == totals[1].tobytes() == totals[2].tobytes()


def _zero_load_decoded(num, proc, control, direction, n_symbols, k, ready):
    """Decode tick of a transport block prepared at `ready` on an empty grid:
    alignment to the first burst start at or after `ready` in the
    direction's data region, the burst and its k - 1 repeats in the
    following slots, then the receiver's half."""
    region = phy.data_region(num, direction, control)
    n = len(region) if n_symbols is None else n_symbols
    slot = ready // num.slot_ticks
    start = min(tick for s in (slot, slot + 1)
                for sym in range(region.start, region.stop - n + 1)
                if (tick := s * num.slot_ticks + sym * num.symbol_ticks) >= ready)
    return start + (k - 1) * num.slot_ticks + n * num.symbol_ticks + proc.decode_half


def zero_load_legs(scs, slot_type, control_variant, gen, k=1):
    """(uplink, downlink) latency in ticks of a packet generated at `gen` on
    idle grids under semi-static scheduling, from `phy`'s tables only, each
    burst sent k times in consecutive slots.

    Each leg is the sender's preparation half, alignment, airtime, k - 1
    slots of repeats and the receiver's decoding half.  The downlink leg is
    created at the first slot boundary after the uplink is decoded and
    prepared at the gNB, less that preparation half, which overlaps the
    hand-over gap."""
    num = phy.numerology(scs)
    proc = phy.processing_times(num.mu, phy.UE_CAPABILITY)
    control = phy.control_config(control_variant)
    n_symbols = {"full": None, "mini7": 7, "mini4": 4}[slot_type]
    ul_done = _zero_load_decoded(num, proc, control, "UL", n_symbols, k,
                                 gen + proc.prepare_half)
    boundary = -(-(ul_done + proc.prepare_half) // num.slot_ticks) * num.slot_ticks
    dl_done = _zero_load_decoded(num, proc, control, "DL", n_symbols, k, boundary)
    return ul_done - gen, dl_done - (boundary - proc.prepare_half)


@pytest.mark.parametrize("control_variant", ["conf1", "conf2", "conf3"])
@pytest.mark.parametrize("slot_type", ["full", "mini7", "mini4"])
@pytest.mark.parametrize("scs", [15, 30, 60])
def test_lone_vehicle_matches_the_zero_load_closed_form(scs, slot_type, control_variant):
    """Every packet of a lone vehicle, semi-static broadcast, has the
    closed-form zero-load latency on each leg, tick for tick: without
    retransmission, and with k = 2, 4 and 8 repetitions, whose outcomes are
    forced to succeed, since LEP repetitions draw errors."""
    cfg = RunConfig(scs_khz=scs, slot_type=slot_type, control_variant=control_variant,
                    **ONE_VEHICLE)
    for k, seed in itertools.product((1, 2, 4, 8), range(3)):
        if k == 1:
            rep, rows = replicate(cfg, seed=seed)
        else:
            rep, rows = replicate(replace(cfg, retransmission="k_repetitions", k=k),
                                  ok=lambda leg: True, seed=seed)
        packets = rows_by_packet(rows)
        assert len(packets) >= 8 and rep.summary.n_delivered == len(packets)
        for (_, gen_ms), legs in packets.items():
            want = zero_load_legs(scs, slot_type, control_variant, ticks(gen_ms), k)
            assert tuple(ticks(leg["total_ms"]) for leg in legs) == want, (k, gen_ms)


@pytest.mark.parametrize("fields", [
    dict(density_veh_km_lane=-1.0),
    dict(warmup_ms=600.0, horizon_ms=600.0),
    dict(warmup_ms=700.0, horizon_ms=600.0),
    dict(min_replications=5, max_replications=4),
    dict(density_veh_km_lane=0.0),
    dict(density_veh_km_lane=0.01),
    dict(retransmission="bogus"),
    dict(retransmission="k_repetitions", k=3),
    dict(traffic="bogus"),
    dict(scs_khz=45),
    dict(bandwidth_mhz=7),
    dict(control_variant="conf9"),
    dict(packet_bytes=0),
    dict(min_replications=0, max_replications=0),
    dict(dl_cast="unicast", unicast_m=20, density_veh_km_lane=1.0),
    dict(seed=-1),
    dict(warmup_ms=100.2, horizon_ms=100.4),
    dict(warmup_ms=-1.0),
    dict(density_veh_km_lane=math.nan),
    dict(packet_bytes=300.5),
    dict(seed=True),
    dict(retransmission="k_repetitions", k=2.0),
    dict(scs_khz=30.0),
    dict(harq_max_retx="1"),
    dict(relative_error_target=0.0),
    dict(relative_error_target=-1.0),
    dict(relative_error_target=math.nan),
    dict(interval_ms=True),
    dict(density_veh_km_lane=True),
    dict(horizon_ms="600"),
    dict(max_replications=1001),
], ids=["negative_density", "warmup_equals_horizon", "warmup_past_horizon",
        "min_above_max_replications", "zero_density", "density_rounding_to_no_vehicle",
        "unknown_retransmission", "bad_repetition_count", "unknown_traffic",
        "unsupported_scs", "unsupported_bandwidth", "unknown_control_variant",
        "empty_packet", "no_replications", "more_receivers_than_vehicles",
        "negative_seed", "no_whole_slot_after_warmup", "negative_warmup",
        "nan_density", "fractional_packet",
        "bool_seed", "float_repetition_count", "float_scs", "string_retx_count",
        "zero_error_target", "negative_error_target", "nan_error_target",
        "bool_interval", "bool_density", "string_horizon", "replications_past_t_table"])
def test_run_config_rejects_bad_values(fields):
    with pytest.raises(phy.ConfigurationError):
        RunConfig(**fields)


# A small value domain per field: plausible values, which still combine into
# invalid configurations (too many unicast receivers, HARQ without a
# retransmission, fewer replications than the minimum), and values invalid
# on their own, including those that used to fail only inside a run.
# Worlds stay small: at most 3 veh/km/lane (31 vehicles), 100 ms.
_PLAUSIBLE = dict(
    scs_khz=[15, 30, 60],
    bandwidth_mhz=[10, 20],
    scheduling=["semi_static", "dynamic"],
    retransmission=["none", "k_repetitions", "harq"],
    k=[0, 2, 4, 8],
    harq_max_retx=[0, 1, 3],
    dl_cast=["broadcast", "unicast"],
    unicast_m=[0, 1, 4, 20],
    mcs_table=["LEP", "HEP"],
    slot_type=["full", "mini7", "mini4"],
    control_variant=["conf1", "conf2", "conf3"],
    harq_group_size=[1, 3],
    traffic=["periodic", "aperiodic"],
    interval_ms=[5.0, 20.0],
    density_veh_km_lane=[0.3, 3.0],
    packet_bytes=[1, 300, 20_000],
    horizon_ms=[50.0, 100.0],
    warmup_ms=[0.0, 20.0],
    seed=[0, 7],
    min_replications=[0, 1, 2],
    max_replications=[1, 2],
    relative_error_target=[0.01, 0.5],
)
_INVALID = dict(
    scs_khz=[45], bandwidth_mhz=[7], scheduling=["bogus"], retransmission=["bogus"],
    k=[3], slot_type=["mini2"], control_variant=["conf9"], harq_group_size=[0],
    traffic=["bursty"], interval_ms=[0.0, -5.0, 0.0001],
    density_veh_km_lane=[-1.0, 0.0, 0.01, math.nan], packet_bytes=[0],
    horizon_ms=[0.0, 0.3], warmup_ms=[-1.0, 60.0], seed=[-1],
    max_replications=[0, 1001],
)


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if f.name != "seed"])
def test_key_separates_every_field(name):
    """Configurations that differ only in one field, any but the seed, get
    different keys: a result row names its point."""
    # every plausible value of the field constructs on this base
    base = dict(k=2, harq_max_retx=1, unicast_m=1, warmup_ms=0.0, min_replications=1)
    keys = {RunConfig(**{**base, name: value}).key() for value in _PLAUSIBLE[name]}
    assert len(keys) == len(_PLAUSIBLE[name]) >= 2


def test_key_ignores_the_seed_and_the_spelling_of_a_float():
    key = RunConfig().key()
    assert re.fullmatch(
        r"scs30-bw20-semi_static-none-broadcast-LEP-full-conf1-periodic-t100-rho10-[0-9a-f]{8}",
        key)
    assert RunConfig(seed=7).key() == key
    assert RunConfig(density_veh_km_lane=10).key() == RunConfig(density_veh_km_lane=10.0).key()
    assert type(RunConfig(interval_ms=20).interval_ms) is float
    assert RunConfig(horizon_ms=500).key() != key != RunConfig(packet_bytes=1000).key()


@st.composite
def _config_fields(draw):
    """Plausible values with up to two fields set to an invalid value."""
    fields = {name: draw(st.sampled_from(values)) for name, values in _PLAUSIBLE.items()}
    for name in draw(st.sets(st.sampled_from(sorted(_INVALID)), max_size=2)):
        fields[name] = draw(st.sampled_from(_INVALID[name]))
    return fields


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_config_fields())
def test_every_config_that_constructs_also_runs(fields):
    """A configuration either fails at construction with a
    ConfigurationError or completes a short replication."""
    try:
        cfg = RunConfig(**fields)
    except phy.ConfigurationError:
        return
    s = run_replication(cfg, np.random.default_rng(cfg.seed))
    assert s.n_generated == s.n_delivered + s.n_dropped + s.n_failed


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
    row = asdict(run(RunConfig(**case["config"])))
    row.pop("runtime_s")
    assert _bits(row) == _bits(case["report"])


def trace_digest(cfg: RunConfig, n_replications: int) -> str:
    """SHA-256 over the trace rows, keys and values in order, of the first
    `n_replications` replications `run(cfg)` would make."""
    digest = hashlib.sha256()
    for seed in np.random.SeedSequence(cfg.seed).spawn(n_replications):
        rows = []
        run_replication(cfg, np.random.default_rng(seed), trace_rows=rows)
        for row in rows:
            digest.update(json.dumps(list(row.items())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", _golden_cases(),
                         ids=lambda case: case["report"]["config_key"])
def test_golden_trace(case):
    """The per-leg components of the packet trace, which no report field
    reads, pinned bit for bit on the golden configurations."""
    expected = json.loads(GOLDEN_TRACES.read_text())[case["report"]["config_key"]]
    assert trace_digest(RunConfig(**case["config"]), case["report"]["n_replications"]) == expected


class _Dispatch(dict):
    """A calendar that tells its replication each bucket the loop takes out
    to run."""

    def __init__(self, rep, buckets):
        super().__init__(buckets)
        self.rep = rep

    def pop(self, tick):
        bucket = super().pop(tick)
        self.rep.now = tick
        self.rep.kinds.update(kind for kind, _ in bucket)
        return bucket


class _Watched(engine._Replication):
    """Records the kind of every event it dispatches, and every push made at
    or before the tick of the event or arrival that made it."""

    now = -1

    def __init__(self, *args):
        super().__init__(*args)
        self._calendar = _Dispatch(self, self._calendar)
        self.kinds = Counter()
        self.early = []

    def _on_gen(self, now, vid, deadline):
        self.now = now
        super()._on_gen(now, vid, deadline)

    def _push(self, tick, kind, payload):
        if tick <= self.now:
            self.early.append((self.now, tick, kind))
        super()._push(tick, kind, payload)


@pytest.fixture(scope="module")
def watched_golden_runs() -> list[_Watched]:
    """Every replication the golden rows run, each as a `_Watched`."""
    reps = []

    def watched(*args):
        reps.append(_Watched(*args))
        return reps[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_Replication", watched)
        for case in _golden_cases():
            run(RunConfig(**case["config"]))
    assert len(reps) == sum(case["report"]["n_replications"] for case in _golden_cases())
    return reps


def test_golden_configurations_pop_every_event_kind(watched_golden_runs):
    """The golden rows pin every event handler: together their runs dispatch
    each kind the engine defines (kinds are numbered from 0, `_FLUSH` last)."""
    dispatched = sum((rep.kinds for rep in watched_golden_runs), Counter())
    assert set(dispatched) == set(range(engine._FLUSH + 1))


def test_every_push_lands_after_the_running_tick(watched_golden_runs):
    """The calendar runs a tick's bucket whole, so it keeps (tick, push
    order) only if no event or arrival pushes at or before its own tick."""
    assert all(rep.kinds and rep.early == [] for rep in watched_golden_runs)


class _SeqHeap(engine._Replication):
    """The loop the calendar replaced: one heap of (tick, seq, kind, payload)
    over every event, merged with the arrival stream."""

    def __init__(self, *args):
        self._events = []
        self._seq = 0
        super().__init__(*args)

    def _push(self, tick, kind, payload):
        self._seq += 1
        heapq.heappush(self._events, (tick, self._seq, kind, payload))

    def run(self):
        heap = self._events
        handlers = (self._on_ingest, self._on_dci, self._on_data, self._on_nack,
                    self._on_flush)
        arrivals = iter(self.arrivals.tolist())
        at, vid, deadline = next(arrivals, engine._NO_ARRIVAL)
        while heap:
            if at <= heap[0][0]:
                self._on_gen(at, vid, deadline)
                at, vid, deadline = next(arrivals, engine._NO_ARRIVAL)
                continue
            tick, _, kind, payload = heapq.heappop(heap)
            handlers[kind](tick, payload)
        return self.summary


@pytest.mark.parametrize("config", [case["config"] for case in _golden_cases()] + [
    dict(scs_khz=60, slot_type="mini7", interval_ms=20.0, density_veh_km_lane=60,
         horizon_ms=100.0, warmup_ms=40.0, seed=1),
], ids=[case["report"]["config_key"] for case in _golden_cases()] + ["overload_mini7"])
def test_calendar_replays_the_sequence_heap(config):
    """The calendar and the (tick, seq) heap run the same events in the
    same order: every trace row and count agrees."""
    cfg = RunConfig(**config)
    seed = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    out = []
    for cls in (engine._Replication, _SeqHeap):
        rows = []
        rep = cls(cfg, np.random.default_rng(seed), rows)
        s = rep.run()
        out.append((rows, (s.n_generated, s.n_delivered, s.n_dropped, s.n_failed,
                           s.n_unallocatable), (rep._uls, rep._dls)))
    assert len(out[0][0]) > 100
    assert out[0] == out[1]


def test_flat_load_packet_runs_three_events():
    """On the paper's typical sweep point (the `flat_load` benchmark's
    configuration on a short horizon) the calendar runs exactly three events
    per packet, its uplink `_DATA`, its `_INGEST` and its downlink `_DATA`,
    plus the periodic flushes; and, the configuration being lossless, no
    attempt asks `_attempt_ok` for an outcome.  Counts, not times, so the
    shape of the hot path is pinned on any host."""

    class Asked(_Watched):
        asked = 0

        def _attempt_ok(self, leg):
            self.asked += 1
            return super()._attempt_ok(leg)

    cfg = RunConfig(scs_khz=30, bandwidth_mhz=20, slot_type="full", scheduling="semi_static",
                    dl_cast="broadcast", mcs_table="LEP", traffic="periodic", interval_ms=20.0,
                    density_veh_km_lane=40.0, horizon_ms=200.0, warmup_ms=60.0, seed=1)
    rep = Asked(cfg, np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0]))
    flushes = len(rep._calendar)
    s = rep.run()
    n = len(rep.arrivals)
    assert n > 2500 and s.n_delivered == s.n_generated > 0
    assert rep.kinds == {engine._DATA: 2 * n, engine._INGEST: n, engine._FLUSH: flushes}
    assert rep.asked == 0


@pytest.mark.parametrize("point", [dict(), dict(bandwidth_mhz=10, packet_bytes=3000)],
                         ids=["benchmark", "unallocatable_receivers"])
def test_dynamic_harq_unicast_path_shape(point):
    """On the `dynamic_harq_unicast` benchmark's configuration, on a short
    horizon, and on a narrower carrier with larger packets, where some
    receivers fit no carrier, every hop of the dynamic leg state machine pushes what it
    should and nothing more: a `_DCI` whose leg is pending pushes one
    `_DATA` (a resolved leg's, none); a `_NACK` whose leg is pending pushes
    one `_DCI`; an `_INGEST` pushes `unicast_m` `_DCI`s less its legs that
    fit no carrier; and `_attempt_ok` is asked once per placed attempt.
    Counts, not times, so the shape of the hot path is pinned on any host."""

    class Shaped(_Watched):
        pushed = None

        def __init__(self, *args):
            super().__init__(*args)
            self.shapes = []   # (event kind, leg pending, kinds pushed, legs unallocatable)
            self.placed = self.asked = 0

        def _push(self, tick, kind, payload):
            if self.pushed is not None:
                self.pushed.append(kind)
            super()._push(tick, kind, payload)

        def _resolve_leg(self, leg, state, detail, delivered=0):
            if self.pushed is not None and detail == "dl_unallocatable":
                self.unallocatable += 1
            super()._resolve_leg(leg, state, detail, delivered)

        def _shaped(self, kind, handler, now, payload):
            pending = kind == engine._INGEST or payload.state == engine._PENDING
            self.pushed, self.unallocatable = [], 0
            handler(now, payload)
            self.shapes.append((kind, pending, self.pushed, self.unallocatable))
            self.pushed = None

        def _on_ingest(self, now, pkt):
            self._shaped(engine._INGEST, super()._on_ingest, now, pkt)

        def _on_dci(self, now, leg):
            self._shaped(engine._DCI, super()._on_dci, now, leg)

        def _on_nack(self, now, leg):
            self._shaped(engine._NACK, super()._on_nack, now, leg)

        def _on_data(self, now, leg):
            before = leg.placement
            super()._on_data(now, leg)
            self.placed += leg.placement is not before

        def _attempt_ok(self, leg):
            self.asked += 1
            return super()._attempt_ok(leg)

    m = 3
    cfg = RunConfig(**{**dict(
        scs_khz=30, bandwidth_mhz=20, slot_type="full", scheduling="dynamic",
        control_variant="conf2", retransmission="harq", harq_max_retx=2, dl_cast="unicast",
        unicast_m=m, mcs_table="LEP", traffic="aperiodic", interval_ms=20.0,
        density_veh_km_lane=20.0, horizon_ms=200.0, warmup_ms=60.0, seed=1), **point})
    rep = Shaped(cfg, np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0]))
    rep.run()
    seen = Counter()
    for kind, pending, pushed, unallocatable in rep.shapes:
        seen[kind, pending] += 1
        seen["unallocatable"] += unallocatable
        if kind == engine._INGEST:
            assert pushed == [engine._DCI] * (m - unallocatable)
        elif not pending:
            assert pushed == []
        else:
            assert pushed == [{engine._DCI: engine._DATA, engine._NACK: engine._DCI}[kind]]
    assert seen[engine._INGEST, True] == rep.kinds[engine._INGEST] > 400
    assert seen[engine._DCI, True] > 2000 and seen[engine._NACK, True] > 100
    assert (seen["unallocatable"] > 0) == bool(point)
    assert rep.asked == rep.placed > 1000


@pytest.mark.parametrize("point", [
    dict(),
    dict(dl_cast="unicast", unicast_m=2),
    dict(scheduling="semi_static", harq_max_retx=2, dl_cast="unicast", unicast_m=2),
])
def test_generated_packets_are_the_counted_packets(point):
    """`n_generated`, counted from the arrival stream at set-up, equals the
    number of counted packets the trace holds, on small points whose
    packets are superseded, unallocatable, starved or fail HARQ.  The
    warm-up falls exactly on an arrival, which counts."""
    fields = {**dict(scs_khz=60, bandwidth_mhz=10, packet_bytes=1000, retransmission="harq",
                     harq_max_retx=1, scheduling="dynamic", interval_ms=10.0,
                     density_veh_km_lane=20, horizon_ms=200.0), **point}
    probe = engine._Replication(RunConfig(warmup_ms=60.0, **fields), np.random.default_rng(0))
    at = int(probe.arrivals[len(probe.arrivals) // 3, 0])
    rep, rows = replicate(RunConfig(warmup_ms=at / phy.TICKS_PER_MS, **fields))
    assert rep.warmup == at and (rep.arrivals[:, 0] == at).sum() >= 1
    packets = rows_by_packet(rows)
    assert rep.summary.n_generated == len(packets) == sum(r["leg"] == 0 for r in rows)
    assert min(ticks(gen_ms) for _, gen_ms in packets) == at
    details = {r["detail"] for r in rows}
    assert {"superseded", "dl_superseded"} & details
    assert {"ul_unallocatable", "dl_unallocatable"} & details
    assert any(r["disposition"] == "delivery_failed" for r in rows)


@pytest.mark.parametrize("control_variant, density", [("conf1", 40), ("conf1", 20),
                                                      ("conf2", 60)])
def test_superseding_packet_reuses_the_request_in_flight(monkeypatch, control_variant,
                                                          density):
    """Under dynamic scheduling a UE has one grant request in flight: a
    packet that arrives while its vehicle's uplink waits for its first
    grant takes that request over instead of sending a scheduling request
    of its own.  Without HARQ every scheduling request is a first one, so
    one is sent per arrival that neither superseded a waiting packet nor
    fits no carrier."""
    calls = []
    sr_chain = engine.lat.sr_chain

    def counted(*args):
        calls.append(args)
        return sr_chain(*args)

    monkeypatch.setattr(engine.lat, "sr_chain", counted)
    cfg = RunConfig(scheduling="dynamic", traffic="aperiodic", interval_ms=20.0,
                    control_variant=control_variant, density_veh_km_lane=density,
                    horizon_ms=300.0, warmup_ms=0.0)
    rep, rows = replicate(cfg, seed=3)
    uplinks = Counter(r["detail"] for r in rows if r["leg"] == 0)
    assert sum(uplinks.values()) == len(rep.arrivals)
    assert uplinks["superseded"] > 0
    assert len(calls) == len(rep.arrivals) - uplinks["superseded"] - uplinks["ul_unallocatable"]


def test_import_loads_no_scipy():
    """Neither importing nrv2x, nor `engine.run` through its stopping rule,
    nor `nrv2x run` loads scipy: the package does not depend on it.  Nor
    does importing nrv2x load OpenSSL's `_hashlib`, which configuration keys
    do without; past import numpy.random loads it itself (through `secrets`
    and `hmac`) when a run draws its first seed."""
    src = str(Path(nrv2x.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, nrv2x.engine, nrv2x.experiment, nrv2x.cli\n"
        "from nrv2x import cli, engine\n"
        "def loaded(*names): return [m for m in sys.modules if m.split('.')[0] in names]\n"
        "print(loaded('scipy', '_hashlib'))\n"
        "tiny = dict(horizon_ms=300.0, warmup_ms=100.0, min_replications=2,\n"
        "            max_replications=3, relative_error_target=1e-9)\n"
        "print(engine.run(engine.RunConfig(**tiny)).ci_relative_error, loaded('scipy'))\n"
        "cli.main(['run', *(f'--set={k}={v}' for k, v in tiny.items())])\n"
        "print(loaded('scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[0] == "[]"
    rel, loaded = out[1].split(" ", 1)
    assert math.isfinite(float(rel)) and loaded == "[]"     # the rule was evaluated
    assert json.loads(out[2])["n_replications"] == 3
    assert out[3] == "[]"


def test_student_t_table_holds_scipys_doubles():
    """Every quantile of the stopping rule's table is the double scipy
    gives, and the table reaches exactly `MAX_REPLICATIONS` means."""
    from scipy.special import stdtrit

    table = engine._t975()
    assert list(table) == list(range(1, engine.MAX_REPLICATIONS))
    for df, t in table.items():
        assert t == float(stdtrit(df, 0.975)), df
    assert math.isfinite(relative_error([5.0, 5.5] * 500))
    with pytest.raises(phy.ConfigurationError, match="1001 replication means"):
        relative_error([5.0, 5.5] * 500 + [5.0])
    RunConfig(max_replications=engine.MAX_REPLICATIONS)


def test_relative_error_matches_student_t_formula():
    from scipy import stats

    rng = np.random.default_rng(8)
    for n in [*range(2, 66), 998, 999, 1000]:
        means = rng.normal(5.0, 0.5, n).tolist()
        mean = float(np.mean(means))
        half = stats.t.ppf(0.975, n - 1) * np.std(means, ddof=1) / math.sqrt(n)
        assert relative_error(means) == float(half / abs(mean))


def test_fresh_replication_heap_holds_only_flushes():
    cfg = RunConfig(density_veh_km_lane=20, traffic="aperiodic", interval_ms=20.0, **FAST)
    rep = engine._Replication(cfg, np.random.default_rng(9))
    assert rep._calendar
    assert all(bucket == [(engine._FLUSH, None)] for bucket in rep._calendar.values())
    assert sorted(rep._heap) == sorted(rep._calendar)
    assert len(rep.arrivals) > len(rep.vehicles)


def test_arrival_stream_is_sorted_by_tick_vehicle_index(monkeypatch):
    """The stream equals a sort of every in-horizon arrival by (tick,
    vehicle, index), each with its vehicle's next arrival as deadline.  A
    gap of a fraction of a tick makes ties both between vehicles and within
    one vehicle."""
    drawn = []
    generate = engine.scn.generate_arrivals

    def recording(*args):
        times, counts = generate(*args)
        drawn.extend(w.tolist() for w in np.split(times, np.cumsum(counts)[:-1]))
        return times, counts

    monkeypatch.setattr(engine.scn, "generate_arrivals", recording)
    cfg = RunConfig(density_veh_km_lane=0.3, traffic="aperiodic", interval_ms=0.002,
                    horizon_ms=2.0, warmup_ms=0.0)
    rep = engine._Replication(cfg, np.random.default_rng(5))
    horizon = phy.ms_to_ticks(cfg.horizon_ms)
    want = sorted((tick, vid, i, times[i + 1]) for vid, times in enumerate(drawn)
                  for i, tick in enumerate(times) if tick < horizon)
    assert len(drawn) == len(rep.vehicles) > 1
    assert rep.arrivals.tolist() == [[tick, vid, nxt] for tick, vid, _, nxt in want]
    ticks = [(tick, vid) for tick, vid, _, _ in want]
    assert len({t for t, _ in ticks}) < len(set(ticks)) < len(ticks)


def test_arrival_runs_before_heap_events_of_its_tick():
    """An arrival and an in-flight event due on the same tick: the arrival
    runs first, as it did when every arrival was pushed up front with a
    lower sequence number."""
    log = []

    class Recording(engine._Replication):
        def _on_gen(self, now, vid, deadline):
            log.append((now, "arrival"))
            super()._on_gen(now, vid, deadline)

        def _on_data(self, now, leg):
            log.append((now, "data"))
            super()._on_data(now, leg)

    cfg = RunConfig(density_veh_km_lane=40, interval_ms=20.0, **FAST)
    Recording(cfg, np.random.default_rng(3)).run()
    assert log == sorted(log, key=lambda e: e[0])
    kinds: dict[int, list] = {}
    for tick, kind in log:
        kinds.setdefault(tick, []).append(kind)
    shared = [k for k in kinds.values() if len(set(k)) == 2]
    assert len(shared) > 10
    assert all(k == sorted(k) for k in shared)   # "arrival" < "data"


@pytest.mark.parametrize("seed", [0, 1, 31, 2024, 2**40 + 7])
def test_scalar_draws_continue_the_vector_stream(seed):
    """n scalar `random()` calls give the n values of one `random(n)` call
    and leave the generator at the same point.  The engine's run-time
    draws rest on this property: `RadioContext.uniform` reads blocks of
    `random(UNIFORM_BLOCK)` and gives the values one scalar draw each would,
    a k-repetition attempt has the outcome of one `random(k)` call, and
    nothing is drawn before the world is."""
    vector, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in range(1, 7):
        assert [scalar.random() for _ in range(n)] == vector.random(n).tolist()
    assert scalar.random() == vector.random()

    n = 3 * control.UNIFORM_BLOCK + 5
    ctx = make_context(seed=seed)
    assert [ctx.uniform() for _ in range(n)] == np.random.default_rng(seed).random(n).tolist()

    for k in engine.REPETITION_COUNTS:
        cfg = RunConfig(retransmission="k_repetitions", k=k, traffic="aperiodic",
                        density_veh_km_lane=10, horizon_ms=300.0, warmup_ms=100.0)
        rng, world = np.random.default_rng(seed), np.random.default_rng(seed)
        rep = engine._Replication(cfg, rng)
        n_ue = len(scn.place_vehicles(cfg.density_veh_km_lane, world))
        scn.generate_arrivals(cfg.traffic, cfg.interval_ms, cfg.horizon_ms, n_ue, world)
        assert rng.bit_generator.state == world.bit_generator.state
        # a copy fails often enough for both outcomes to occur at every k
        rep._bler = bler = 0.9
        outcomes = [rep._attempt_ok(None) for _ in range(200)]
        assert outcomes == [bool((world.random(k) < bler).sum() < k) for _ in range(200)]
        assert 0 < sum(outcomes) < 200


if __name__ == "__main__":
    # Rewrite the golden reports and trace digests from the current engine,
    # both keyed by the current configuration keys:
    #   PYTHONPATH=src python tests/test_engine.py
    # Only a change that declares a model change may do this.
    cases = _golden_cases()
    digests = {}
    for case in cases:
        cfg = RunConfig(**case["config"])
        case["report"] = asdict(run(cfg))
        case["report"].pop("runtime_s")
        digests[case["report"]["config_key"]] = trace_digest(cfg, case["report"]["n_replications"])
    GOLDEN.write_text(json.dumps(cases, indent=1))
    GOLDEN_TRACES.write_text(json.dumps(digests, indent=1) + "\n")
