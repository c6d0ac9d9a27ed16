"""Latency composition tests: chain arithmetic, repetition and HARQ algebra,
fan-out, and reliability bounds."""

import math

import numpy as np
import pytest

from nrv2x import latency as lat
from nrv2x import phy
from nrv2x.phy import ConfigurationError
from helpers import make_context

MS = phy.TICKS_PER_MS


def test_scheme_validation():
    with pytest.raises(ConfigurationError):
        lat.SchemeConfig(retransmission="k_repetitions", k=3)
    with pytest.raises(ConfigurationError):
        lat.SchemeConfig(retransmission="harq", harq_max_retx=0)
    with pytest.raises(ConfigurationError):
        lat.SchemeConfig(dl_cast="unicast", unicast_m=0)
    ok = lat.SchemeConfig(retransmission="k_repetitions", k=4)
    assert ok.repeats == 4 and ok.bler == 0.1


def test_breakdown_total_is_component_sum():
    bd = lat.LatencyBreakdown("UL", sched=10, tx_proc=20, align=30, wait=40,
                              airtime=50, rx_proc=60, retx=70)
    assert bd.total_ticks == 280
    assert bd.total_ms == pytest.approx(280 / MS)


def test_semistatic_empty_grid(ctx):
    # single packet on an empty grid: no resource wait, exact serial chain
    gen = 100
    bd, timing = lat.latency_semistatic(ctx, "UL", gen, n_rb=2)
    assert bd.sched == 0 and bd.wait == 0
    assert bd.tx_proc == ctx.prepare_half
    assert bd.airtime == 13 * ctx.symbol_ticks
    assert bd.rx_proc == ctx.decode_half
    ready = gen + ctx.prepare_half
    assert bd.align == ctx.slot_ticks - ready  # next slot start
    assert timing.delivered == timing.placement.tx_end_tick + ctx.decode_half
    assert bd.total_ticks == timing.delivered - gen


def test_dynamic_exceeds_semistatic_on_same_trace():
    for direction in ("UL", "DL"):
        scheme = lat.SchemeConfig(scheduling="dynamic", control_variant="conf3")
        c1 = make_context(scheme=lat.SchemeConfig(), control_variant="conf3")
        c2 = make_context(scheme=scheme)
        bd_s, _ = lat.latency_semistatic(c1, direction, 100, n_rb=2)
        bd_d, _ = lat.latency_dynamic(c2, direction, 100, n_rb=2)
        assert bd_d.total_ticks > bd_s.total_ticks
        assert bd_d.sched > 0


def test_dynamic_single_ue_conf3_component_chain(ctx_factory=make_context):
    """Boundary-aligned arrival under ideal control: the scheduling chain is
    processing halves plus the two control transmit times plus alignment."""
    ctx = ctx_factory(control_variant="conf3",
                      scheme=lat.SchemeConfig(scheduling="dynamic",
                                              control_variant="conf3"))
    bd, _ = lat.latency_dynamic(ctx, "UL", 0, n_rb=2)
    sr_ready = ctx.decode_half
    sr_occ = ctx.pucch_occasion(sr_ready)
    sr_done = sr_occ + ctx.tt_pucch + ctx.prepare_half
    dci = sr_done + ctx.decode_half
    drain = ctx.pdcch_occasion_after(dci)
    grant_done = drain + ctx.tt_pdcch + ctx.prepare_half
    assert bd.sched == grant_done  # gen at 0
    assert bd.sr_wait == 0 and bd.queue_wait == 0


def test_k_repetition_latency_deltas():
    cases = [(2, 30, 0.5), (4, 15, 3.0), (8, 60, 1.75)]
    for k, scs, delta_ms in cases:
        num = phy.numerology(scs)
        base = lat.LatencyBreakdown("UL", airtime=100)
        before = base.total_ticks
        lat.apply_k_repetitions(base, k, num.slot_ticks)
        assert base.total_ticks - before == (k - 1) * num.slot_ticks
        assert (base.total_ticks - before) / MS == pytest.approx(delta_ms)
        assert base.attempts == k
    with pytest.raises(ConfigurationError):
        lat.apply_k_repetitions(lat.LatencyBreakdown("UL"), 3, 336)


def test_k_repetitions_charge_grid(ctx):
    scheme = lat.SchemeConfig(retransmission="k_repetitions", k=4)
    ctx = make_context(scheme=scheme)
    bd, timing = lat.latency_semistatic(ctx, "UL", 0, n_rb=3)
    assert timing.placement.repeats == 4
    grid = ctx.grids["UL"]
    start = timing.placement.slot_idx
    area = 3 * 13
    for r in range(4):
        lo = (start + r) * grid.slot_ticks
        assert grid.used_area_in(lo, lo + grid.slot_ticks) == area
    assert bd.retx == 3 * ctx.slot_ticks


def test_harq_zero_bler_limit(ctx):
    scheme = lat.SchemeConfig(retransmission="harq", harq_max_retx=3)
    ctx = make_context(scheme=scheme)
    bd, timing = lat.latency_semistatic(ctx, "UL", 0, n_rb=2)
    before = bd.total_ticks
    bd, delivered, _ = lat.apply_harq(ctx, bd, timing, "UL", 2, bler=1e-12, max_retx=3)
    assert delivered
    assert bd.total_ticks == before
    assert bd.attempts == 1


def test_harq_single_forced_failure_cycle():
    """One forced failure adds exactly one NACK + reschedule + data cycle."""
    scheme = lat.SchemeConfig(scheduling="semi_static", retransmission="harq",
                              harq_max_retx=3, control_variant="conf3")
    ctx = make_context(scheme=scheme, control_variant="conf3")
    bd, timing = lat.latency_semistatic(ctx, "UL", 0, n_rb=2)
    base_total = bd.total_ticks
    fail_known = timing.delivered

    # independent recomputation of the single-cycle delta
    nack_done = lat.nack_chain(ctx, "UL", fail_known)
    # replay the sr/grant/data chain on a scratch context with the same state
    probe = make_context(scheme=scheme, control_variant="conf3")
    probe.grids["UL"].allocate(2, 13, 0, True)  # mirror the initial placement
    sr = lat.sr_chain(probe, nack_done, p=0.0)
    grant = lat.grant_chain(probe, sr.done + probe.decode_half)
    data = lat.data_chain(probe, "UL", grant.done + probe.prepare_half, 2)
    expected_delta = data.delivered - fail_known

    bd, delivered, last = lat.apply_harq(
        ctx, bd, timing, "UL", 2, max_retx=3, failure_plan=[True, False]
    )
    assert delivered
    assert bd.attempts == 2
    assert bd.total_ticks - base_total == expected_delta
    assert last == fail_known + expected_delta


def test_harq_exhaustion_marks_failure(ctx):
    scheme = lat.SchemeConfig(retransmission="harq", harq_max_retx=2)
    ctx = make_context(scheme=scheme)
    bd, timing = lat.latency_semistatic(ctx, "UL", 0, n_rb=2)
    bd, delivered, _ = lat.apply_harq(
        ctx, bd, timing, "UL", 2, max_retx=2, failure_plan=[True, True, True]
    )
    assert not delivered
    assert bd.attempts == 3  # initial + 2 retransmissions


def test_harq_delivery_probability_small_sample():
    # delivery rate over forced-free sampling approximates 1 - bler^(n+1)
    scheme = lat.SchemeConfig(retransmission="harq", harq_max_retx=3)
    rng = np.random.default_rng(9)
    bler, n = 0.35, 3     # inflated bler so 4 attempts still fail sometimes
    trials = 200_000
    fails = 0
    for _ in range(trials):
        ok = False
        for _ in range(n + 1):
            if rng.random() >= bler:
                ok = True
                break
        fails += not ok
    expected = bler ** (n + 1)
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(fails / trials - expected) < 4 * sigma


def test_unicast_fanout_max():
    assert lat.unicast_dl_latency([100], 1) == 100
    assert lat.unicast_dl_latency([100, 250, 170], 3) == 250
    with pytest.raises(ConfigurationError):
        lat.unicast_dl_latency([], 0)
    with pytest.raises(ConfigurationError):
        lat.unicast_dl_latency([1, 2], 3)
    # monotone in receiver count under nested sets
    legs = [120, 80, 300, 40, 220, 500]
    values = [max(legs[:m]) for m in range(1, 7)]
    assert values == sorted(values)


def test_reliability_bounds():
    k4 = lat.SchemeConfig(retransmission="k_repetitions", k=4)
    assert lat.reliability_bound(0.1, k4) == pytest.approx(0.9999)
    harq3 = lat.SchemeConfig(retransmission="harq", harq_max_retx=3)
    assert lat.reliability_bound(0.1, harq3) == pytest.approx(0.9999)
    single = lat.SchemeConfig(mcs_table="HEP")
    assert lat.reliability_bound(1e-5, single) == pytest.approx(0.99999)


def test_nack_chain_directions(ctx):
    # uplink NACK aligns to the end-of-slot control region, downlink NACK to
    # the next slot start; both add only processing and transmit time
    known = 10
    ul_done = lat.nack_chain(ctx, "UL", known)
    ready = known + ctx.decode_half
    assert ul_done == ctx.pucch_occasion(ready) + ctx.tt_pucch + ctx.prepare_half
    dl_done = lat.nack_chain(ctx, "DL", known)
    assert dl_done == ctx.pdcch_occasion_after(ready) + ctx.tt_pdcch + ctx.prepare_half


def test_frame_alignment_bound_over_offsets(ctx):
    # alignment never exceeds one slot for any slot type or offset
    for full, n_sym in ((True, 13), (False, 7), (False, 4)):
        grid = ctx.grids["UL"]
        for off in range(0, ctx.slot_ticks, 5):
            b = grid.alignment(off, n_sym, full)
            assert 0 <= b - off <= ctx.slot_ticks


def test_sched_latency_ops_match_dynamic_chain():
    scheme = lat.SchemeConfig(scheduling="dynamic", control_variant="conf3")
    a = make_context(scheme=scheme, control_variant="conf3")
    b = make_context(scheme=scheme, control_variant="conf3")
    sched_ul, sr, grant = lat.sched_latency_ul(a, 50, p=0.0)
    bd, _ = lat.latency_dynamic(b, "UL", 50, n_rb=2)
    assert bd.sched == sched_ul
    assert sched_ul == (grant.done - 50)
    c = make_context(scheme=scheme, control_variant="conf3")
    sched_dl, _ = lat.sched_latency_dl(c, 50)
    assert sched_dl < sched_ul  # no request hop in downlink signalling
