import itertools
import math

import pytest

from nrv2x import control, phy


def test_slot_duration_values():
    durations = [phy.ticks_to_ms(phy.numerology(scs).slot_ticks) for scs in (15, 30, 60)]
    assert durations == [1.0, 0.5, 0.25]


@pytest.mark.parametrize("scs,cp,symbols", [(15, "NCP", 14), (30, "NCP", 14), (60, "ECP", 12)])
def test_numerology_geometry(scs, cp, symbols):
    num = phy.numerology(scs)
    assert num.cp == cp
    assert num.symbols_per_slot == symbols
    assert phy.ticks_to_ms(num.slot_ticks) == 1.0 / (1 << num.mu)
    # symbol x symbols_per_slot == slot, exact on the tick grid
    assert num.symbol_ticks * num.symbols_per_slot == num.slot_ticks
    # no drift over a 10 ms frame
    frame_slots = 10 * (1 << num.mu)
    assert frame_slots * num.slot_ticks == 10 * phy.TICKS_PER_MS


def test_numerology_cp_pairing_enforced():
    assert [phy.numerology(scs).cp for scs in (15, 30, 60)] == ["NCP", "NCP", "ECP"]
    with pytest.raises(phy.ConfigurationError):
        phy.numerology(120)


def test_total_rbs_table_values():
    # values read directly from TS 38.104 Table 5.3.2-1
    assert phy.total_rbs(20, 30) == 51
    assert phy.total_rbs(10, 15) == 52
    assert phy.total_rbs(50, 60) == 65
    with pytest.raises(phy.ConfigurationError):
        phy.total_rbs(5, 60)


def test_total_rbs_monotonicity():
    for scs in (15, 30, 60):
        counts = []
        for bw in (10, 15, 20, 25, 30, 40, 50):
            counts.append(phy.total_rbs(bw, scs))
        assert all(a < b for a, b in zip(counts, counts[1:]))
    for bw in (10, 20, 30, 40, 50):
        by_scs = [phy.total_rbs(bw, scs) for scs in (15, 30, 60)]
        assert all(a > b for a, b in zip(by_scs, by_scs[1:]))


def test_processing_times_cap2_values():
    # TS 38.214 Tables 5.3-2 / 6.4-2, converted on the 14-symbol grid
    t_mu1 = phy.processing_times(1, 2)
    assert t_mu1.decode_ticks == round(4.5 * phy.TICKS_PER_MS / 28)
    assert t_mu1.prepare_ticks == round(5.5 * phy.TICKS_PER_MS / 28)
    for mu, n1, n2 in ((0, 3, 5), (1, 4.5, 5.5), (2, 9, 11)):
        t = phy.processing_times(mu, 2)
        symbols_per_ms = 14 << mu
        assert phy.ticks_to_ms(t.decode_ticks) == pytest.approx(n1 / symbols_per_ms)
        assert phy.ticks_to_ms(t.prepare_ticks) == pytest.approx(n2 / symbols_per_ms)


def test_processing_times_monotone_in_mu():
    for cap in (1, 2):
        times = [phy.processing_times(mu, cap) for mu in (0, 1, 2)]
        for earlier, later in itertools.pairwise(times):
            assert later.decode_ticks <= earlier.decode_ticks
            assert later.prepare_ticks <= earlier.prepare_ticks
            assert later.decode_ticks > 0 and later.prepare_ticks > 0


def test_data_regions():
    ncp = phy.numerology(30)
    ctrl = phy.ControlConfig(24, 1, 1, 1)
    assert phy.data_region(ncp, "DL", ctrl) == range(1, 14)
    assert phy.data_region(ncp, "UL", ctrl) == range(0, 13)
    ecp = phy.numerology(60)
    ctrl2 = phy.ControlConfig(24, 2, 1, 1)
    assert phy.data_region(ecp, "DL", ctrl2) == range(2, 12)
    with pytest.raises(phy.ConfigurationError):
        phy.data_region(ncp, "DL", phy.ControlConfig(24, 14, 1, 1))


def test_control_variants():
    c1 = phy.control_config("conf1")
    c2 = phy.control_config("conf2")
    c3 = phy.control_config("conf3")
    assert c2.n_rb_pdcch == 6 * c1.n_rb_pdcch
    assert c2.n_rb_pucch == 8 * c1.n_rb_pucch
    assert c2.n_sy_pdcch == c1.n_sy_pdcch and c2.n_sy_pucch == c1.n_sy_pucch
    assert c3.ideal and not c1.ideal and not c2.ideal
    # the per-slot capacities: conf3's are unbounded
    assert [control.dci_per_slot(c) for c in (c1, c2, c3)] == [4, 24, math.inf]
    assert [control.sr_per_slot(c) for c in (c1, c2, c3)] == [6, 48, math.inf]
    # 2000 slots/s at 30 kHz: 8,000 and 48,000 DCI/s
    slots_per_s = 1000 * phy.TICKS_PER_MS // phy.numerology(30).slot_ticks
    assert [control.dci_per_slot(c) * slots_per_s for c in (c1, c2)] == [8000, 48000]
    assert [control.sr_cycle_slots(c, 100) for c in (c1, c2, c3)] == [17, 3, 1]
    with pytest.raises(phy.ConfigurationError):
        phy.control_config("conf4")
