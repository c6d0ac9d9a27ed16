"""Latency composition tests: the chain segments the engine composes (data,
scheduling request, grant and NACK hops) on a quiescent context, and their
composition into whole hops, repetitions, HARQ cycles and fan-out on engine
runs, with outcomes forced where a test needs them."""

import numpy as np
import pytest

from nrv2x import engine
from nrv2x import latency as lat
from nrv2x import link, phy
from nrv2x.engine import RunConfig
from nrv2x.phy import ConfigurationError
from helpers import ONE_VEHICLE, make_context, make_slot_grid, replicate, rows_by_packet, ticks


def test_scheme_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(retransmission="k_repetitions", k=3)
    with pytest.raises(ConfigurationError):
        RunConfig(retransmission="harq", harq_max_retx=0)
    with pytest.raises(ConfigurationError):
        RunConfig(dl_cast="unicast", unicast_m=0)
    rep = engine._Replication(RunConfig(retransmission="k_repetitions", k=4, **ONE_VEHICLE),
                              np.random.default_rng(0))
    assert rep._repeats == 4 and rep._bler == 0.1


def test_semistatic_empty_grid(ctx):
    # single packet on an empty grid: no resource wait, exact serial chain
    gen = 100
    ready = gen + ctx.prepare_half
    grid = make_slot_grid()
    placement, align, wait, delivered = lat.data_chain(ctx, grid, ready, n_rb=2)
    airtime = grid.burst_ticks
    assert wait == 0
    assert airtime == 13 * grid.symbol_ticks
    assert align == ctx.slot_ticks - ready  # next slot start
    assert placement.start_tick == ready + align
    assert delivered == placement.tx_end_tick + ctx.decode_half
    assert delivered == ready + align + airtime + ctx.decode_half


def test_dynamic_exceeds_semistatic_on_same_trace():
    """Alone in the cell, every hop of every packet is slower with
    per-packet grants than with pre-assigned ones on the same arrivals."""
    _, dyn = replicate(RunConfig(scheduling="dynamic", control_variant="conf3", **ONE_VEHICLE))
    _, semi = replicate(RunConfig(control_variant="conf3", **ONE_VEHICLE))
    dyn, semi = rows_by_packet(dyn), rows_by_packet(semi)
    assert dyn.keys() == semi.keys() and len(dyn) >= 8
    for key, legs in dyn.items():
        assert [r["direction"] for r in legs] == ["UL", "DL"]
        for slow, fast in zip(legs, semi[key]):
            assert fast["sched_ms"] == 0 < slow["sched_ms"]
            assert slow["total_ms"] > fast["total_ms"]


def test_dynamic_single_ue_conf3_component_chain():
    """Alone in the cell under ideal control, a packet's uplink scheduling
    term is the request-plus-grant chain from its arrival: processing
    halves, the two control transmit times and alignment."""
    cfg = RunConfig(scheduling="dynamic", control_variant="conf3", **ONE_VEHICLE)
    rep, rows = replicate(cfg)
    ctx = rep.ctx
    packets = rows_by_packet(rows)
    assert len(packets) >= 8
    for (_, gen_ms), (ul, dl) in packets.items():
        gen = ticks(gen_ms)
        sr_done = ctx.pucch_occasion(gen + ctx.decode_half) + ctx.tt_pucch + ctx.prepare_half
        grant_done = (ctx.pdcch_occasion_after(sr_done + ctx.decode_half)
                      + ctx.tt_pdcch + ctx.prepare_half)
        assert ul["disposition"] == "delivered"
        assert ticks(ul["sched_ms"]) == grant_done - gen
        assert 0 < dl["sched_ms"] < ul["sched_ms"]  # no request hop downlink


def test_k_repetition_latency_deltas():
    """k blind repetitions add exactly (k-1) slots to each hop of a lone
    vehicle's packet; criterion 6 covers every (k, SCS) pair."""
    for k, scs, delta_ms in [(2, 30, 0.5), (4, 15, 3.0), (8, 60, 1.75)]:
        _, plain = replicate(RunConfig(scs_khz=scs, **ONE_VEHICLE))
        _, reps = replicate(RunConfig(scs_khz=scs, retransmission="k_repetitions", k=k,
                                      **ONE_VEHICLE))
        plain, reps = rows_by_packet(plain), rows_by_packet(reps)
        delivered = [key for key, legs in reps.items()
                     if legs[0]["disposition"] == plain[key][0]["disposition"] == "delivered"]
        assert len(delivered) >= 8
        slot = phy.numerology(scs).slot_ticks
        for key in delivered:
            for a, b in zip(reps[key], plain[key]):
                assert ticks(a["total_ms"]) - ticks(b["total_ms"]) == (k - 1) * slot
                assert a["retx_ms"] == pytest.approx(delta_ms)
                assert a["attempts"] == k
    with pytest.raises(ConfigurationError):
        RunConfig(retransmission="k_repetitions", k=3)


def test_k_repetitions_charge_grid(ctx):
    grid = make_slot_grid()
    placement = lat.data_chain(ctx, grid, 0, n_rb=3, repeats=4)[0]
    assert placement.repeats == 4
    start = placement.slot_idx
    area = 3 * 13
    for r in range(5):
        lo = (start + r) * grid.slot_ticks
        assert grid.used_area_in(lo, lo + grid.slot_ticks) == (area if r < 4 else 0)


def test_harq_zero_bler_limit():
    """HARQ whose every attempt succeeds reproduces the run without a
    retransmission scheme, row for row."""
    base = dict(density_veh_km_lane=20, interval_ms=20.0, horizon_ms=600.0,
                warmup_ms=100.0)
    _, harq = replicate(RunConfig(retransmission="harq", harq_max_retx=3, **base),
                        ok=lambda leg: True, seed=4)
    _, plain = replicate(RunConfig(**base), seed=4)
    assert len(harq) > 1000 and harq == plain
    assert {r["attempts"] for r in harq} == {1}


def test_harq_single_forced_failure_cycle():
    """One forced uplink failure adds exactly one NACK, request, grant and
    data cycle, recomputed from the chain segments on a fresh context."""
    cfg = RunConfig(retransmission="harq", harq_max_retx=3, control_variant="conf3",
                    **ONE_VEHICLE)
    rep, rows = replicate(
        cfg, ok=lambda leg: leg.hop.direction == "DL" or leg.attempts > 1)
    n_rb = rep._ul.rbs[0]
    packets = rows_by_packet(rows)
    assert len(packets) >= 8
    for (_, gen_ms), (ul, dl) in packets.items():
        gen = ticks(gen_ms)
        probe = make_context(control_variant="conf3")
        grid = make_slot_grid(slot_type=cfg.slot_type, control_variant="conf3")
        # the failure is known once the first attempt is decoded
        known = lat.data_chain(probe, grid, gen + probe.prepare_half, n_rb)[-1]
        uplink_nack = (probe.pucch_occasion, probe.tt_pucch)
        sr_done = lat.sr_chain(probe, lat.nack_chain(probe, uplink_nack, known))
        grant_done = lat.grant_chain(probe, sr_done + probe.decode_half)
        again = lat.data_chain(probe, grid, grant_done + probe.prepare_half, n_rb)[-1]
        assert ul["disposition"] == "delivered" and ul["attempts"] == 2
        assert ticks(ul["total_ms"]) - ticks(ul["retx_ms"]) == known - gen
        assert ticks(ul["retx_ms"]) == again - known
        assert dl["attempts"] == 1 and dl["retx_ms"] == 0


def test_harq_exhaustion_marks_failure():
    """Every attempt in one direction fails: each packet fails there after
    exactly harq_max_retx + 1 attempts, under either scheduling."""
    for scheduling in ("semi_static", "dynamic"):
        for leg, direction in enumerate(("UL", "DL")):
            cfg = RunConfig(scheduling=scheduling, retransmission="harq", harq_max_retx=2,
                            **ONE_VEHICLE)
            rep, rows = replicate(cfg, ok=lambda l, d=direction: l.hop.direction != d)
            packets = rows_by_packet(rows)
            assert rep.summary.n_failed == len(packets) >= 8
            for legs in packets.values():
                assert len(legs) == 1 + leg
                assert legs[0]["disposition"] == "delivery_failed"
                assert legs[0]["detail"] == direction.lower() + "_error"
                assert legs[leg]["attempts"] == 3  # initial + 2 retransmissions


@pytest.mark.parametrize("group", [1, 3])
def test_engine_harq_draws_match_binomial_bounds(group):
    """The engine's own HARQ draws at the LEP table BLER of 0.1, one
    retransmission allowed, on a light load with no drops: a leg's first
    attempt reaches all of its `group` pending receivers with probability
    0.9**group, a leg fails with probability 1 - 0.99**group, and a packet
    (one uplink receiver, `group` downlink ones) with 1 - 0.99**(1 + group).
    Every count lies inside its two-sided 1 - 1e-6 binomial interval."""
    from scipy.stats import binom

    bler = link.TARGET_BLER["LEP"]
    cfg = RunConfig(retransmission="harq", harq_max_retx=1, harq_group_size=group,
                    density_veh_km_lane=10, interval_ms=100.0, horizon_ms=6000.0,
                    warmup_ms=100.0)
    rep, rows = replicate(cfg, seed=1)
    s = rep.summary
    assert s.n_dropped == 0 and s.n_generated > 5000

    def within(count, n, p):
        lo, hi = binom.interval(1 - 1e-6, n, p)
        assert lo <= count <= hi, (count, n, p)

    fail = 1 - (1 - bler ** 2)
    within(s.n_failed, s.n_generated, 1 - (1 - fail) ** (1 + group))
    for leg, receivers in ((0, 1), (1, group)):
        legs = [r for r in rows if r["leg"] == leg]
        assert {r["attempts"] for r in legs} <= {1, 2}
        within(sum(r["attempts"] == 1 for r in legs), len(legs), (1 - bler) ** receivers)
        within(sum(r["detail"] == r["direction"].lower() + "_error" for r in legs), len(legs),
               1 - (1 - fail) ** receivers)


def test_unicast_fanout_max():
    """A delivered packet's downlink latency is its slowest receiver's leg,
    and its total is uplink plus that downlink."""
    cfg = RunConfig(dl_cast="unicast", unicast_m=3, density_veh_km_lane=10,
                    horizon_ms=600.0, warmup_ms=100.0)
    rep, rows = replicate(cfg, seed=7)
    s = rep.summary
    delivered = [legs for legs in rows_by_packet(rows).values()
                 if legs[0]["disposition"] == "delivered"]
    assert len(delivered) == s.n_delivered > 100
    for i, legs in enumerate(delivered):
        assert [r["leg"] for r in legs] == [0, 1, 2, 3]
        assert s.dl_ms[i] == max(r["total_ms"] for r in legs[1:])
        assert s.ul_ms[i] == legs[0]["total_ms"]
        assert s.total_ms[i] == phy.ticks_to_ms(ticks(s.ul_ms[i]) + ticks(s.dl_ms[i]))


def test_nack_chain_directions(ctx):
    # uplink NACK aligns to the end-of-slot control region, downlink NACK to
    # the next slot start; both add only processing and transmit time
    known = 10
    ul_done = lat.nack_chain(ctx, (ctx.pucch_occasion, ctx.tt_pucch), known)
    ready = known + ctx.decode_half
    assert ul_done == ctx.pucch_occasion(ready) + ctx.tt_pucch + ctx.prepare_half
    dl_done = lat.nack_chain(ctx, (ctx.pdcch_occasion_after, ctx.tt_pdcch), known)
    assert dl_done == ctx.pdcch_occasion_after(ready) + ctx.tt_pdcch + ctx.prepare_half
    # the engine's hops carry those channels
    rep = engine._Replication(RunConfig(**ONE_VEHICLE), np.random.default_rng(0))
    assert rep._ul.nack == (rep.ctx.pucch_occasion, rep.ctx.tt_pucch)
    assert rep._dl.nack == (rep.ctx.pdcch_occasion_after, rep.ctx.tt_pdcch)


def test_frame_alignment_bound_over_offsets():
    # alignment never exceeds one slot for any slot type or offset
    for slot_type in engine.SLOT_SYMBOLS:
        grid = make_slot_grid(slot_type=slot_type)
        for off in range(0, grid.slot_ticks, 5):
            b = grid.alignment(off)
            assert 0 <= b - off <= grid.slot_ticks


def test_sched_latency_ops_match_dynamic_chain():
    """Under ideal control a grant chain is processing halves, the control
    transmit times and alignment; downlink signalling lacks the request
    hop, so it is shorter than uplink signalling."""
    ctx = make_context(control_variant="conf3")
    gen = 50
    sr_done = lat.sr_chain(ctx, gen)
    assert sr_done == ctx.pucch_occasion(gen + ctx.decode_half) + ctx.tt_pucch + ctx.prepare_half
    ul_done = lat.grant_chain(ctx, sr_done + ctx.decode_half)
    assert ul_done == (ctx.pdcch_occasion_after(sr_done + ctx.decode_half)
                       + ctx.tt_pdcch + ctx.prepare_half)
    # the DCI queue takes messages in time order: the downlink one on its own
    dl_done = lat.grant_chain(make_context(control_variant="conf3"), gen + ctx.decode_half)
    assert dl_done < ul_done
