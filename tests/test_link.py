"""Link adaptation tests, anchored on an independent straight-line transport
block sizing oracle (own table copy, written before the main implementation).
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrv2x import link
from nrv2x.phy import ConfigurationError

# --- independent oracle -----------------------------------------------------

_ORACLE_TBS_TABLE = [
    24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 136, 144,
    152, 160, 168, 176, 184, 192, 208, 224, 240, 256, 272, 288, 304, 320,
    336, 352, 368, 384, 408, 432, 456, 480, 504, 528, 552, 576, 608, 640,
    672, 704, 736, 768, 808, 848, 888, 928, 984, 1032, 1064, 1128, 1160,
    1192, 1224, 1256, 1288, 1320, 1352, 1416, 1480, 1544, 1608, 1672, 1736,
    1800, 1864, 1928, 2024, 2088, 2152, 2216, 2280, 2408, 2472, 2536, 2600,
    2664, 2728, 2792, 2856, 2976, 3104, 3240, 3368, 3496, 3624, 3752, 3824,
]


def tbs_oracle(qm, rate, n_rb, n_symbols, layers, overhead):
    n_re_prb = 12 * n_symbols - overhead
    n_re = min(156, n_re_prb) * n_rb
    n_info = n_re * rate * qm * layers
    if n_info <= 0:
        return 0
    if n_info <= 3824:
        n = max(3, math.floor(math.log2(n_info)) - 6)
        n_info_q = max(24, (1 << n) * math.floor(n_info / (1 << n)))
        for t in _ORACLE_TBS_TABLE:
            if t >= n_info_q:
                return t
        return _ORACLE_TBS_TABLE[-1]
    n = math.floor(math.log2(n_info - 24)) - 5
    n_info_q = max(3840, (1 << n) * math.floor((n_info - 24) / (1 << n) + 0.5))
    if rate <= 0.25:
        c = math.ceil((n_info_q + 24) / 3816)
    elif n_info_q > 8424:
        c = math.ceil((n_info_q + 24) / 8424)
    else:
        c = 1
    return 8 * c * math.ceil((n_info_q + 24) / (8 * c)) - 24


# --- table sanity ------------------------------------------------------------

def test_mcs_table_shapes_and_peaks():
    lep = link.MCS_TABLES["LEP"]
    hep = link.MCS_TABLES["HEP"]
    assert len(lep) == 28 and len(hep) == 29
    assert lep[-1].spectral_efficiency == 7.4063
    assert hep[-1].spectral_efficiency == 4.5234
    for table in (lep, hep):
        for entry in table:
            assert entry.modulation_order in (2, 4, 6, 8)
            assert 0 < entry.code_rate < 1
            # table efficiency equals Qm x R within the table's rounding
            assert entry.spectral_efficiency == pytest.approx(
                entry.modulation_order * entry.code_rate, abs=5e-5
            )


def test_mcs_from_cqi_endpoints():
    assert link.mcs_from_cqi(15, "LEP").index == 27
    assert link.mcs_from_cqi(1, "HEP").index == 0
    # mid CQI, LEP: CQI 7 efficiency 2.7305 admits exactly MCS 11
    assert link.mcs_from_cqi(7, "LEP").index == 11
    # CQI 1 of table 2 sits below MCS 0; fallback to the most robust entry
    assert link.mcs_from_cqi(1, "LEP").index == 0
    with pytest.raises(link.NoTransmission):
        link.mcs_from_cqi(0, "LEP")


def test_cqi_from_distance_monotone():
    cqi_map = link.linear_cqi_map()
    assert link.cqi_from_distance(0.0, cqi_map) == 15
    assert link.cqi_from_distance(866.0, cqi_map) == link.EDGE_CQI
    cqis = [link.cqi_from_distance(d, cqi_map) for d in range(0, 867, 10)]
    assert all(a >= b for a, b in zip(cqis, cqis[1:]))
    with pytest.raises(ConfigurationError):
        link.cqi_from_distance(900.0, cqi_map)


def test_custom_three_step_map():
    cqi_map = ((100.0, 9), (200.0, 5), (300.0, 2))
    assert link.cqi_from_distance(150.0, cqi_map) == 5


# --- TBS against the oracle ---------------------------------------------------

def test_tbs_frozen_oracle_values():
    mid_lep = link.MCS_TABLES["LEP"][13]
    assert link.transport_block_size(mid_lep, 4, 12, 2, 12) == 3496
    low_hep = link.MCS_TABLES["HEP"][0]
    assert link.transport_block_size(low_hep, 1, 2, 1, 12) == 24
    top_lep = link.MCS_TABLES["LEP"][27]
    assert link.transport_block_size(top_lep, 20, 13, 2, 12) == 43032
    low_rate = link.MCS_TABLES["HEP"][4]
    assert link.transport_block_size(low_rate, 100, 13, 2, 12) == 4360


def test_tbs_matches_oracle_randomised():
    rng = random.Random(7)
    tables = [m for t in link.MCS_TABLES.values() for m in t]
    for _ in range(1000):
        mcs = rng.choice(tables)
        n_rb = rng.randint(1, 270)
        n_sym = rng.randint(1, 14)
        layers = rng.choice((1, 2))
        oh = rng.choice((0, 6, 12, 18))
        expected = tbs_oracle(mcs.modulation_order, mcs.code_rate, n_rb, n_sym, layers, oh)
        assert link.transport_block_size(mcs, n_rb, n_sym, layers, oh) == expected


@settings(max_examples=200, deadline=None)
@given(
    idx=st.integers(0, 27),
    n_rb=st.integers(1, 200),
    n_sym=st.integers(2, 14),
    oh=st.sampled_from((0, 6, 12, 18)),
)
def test_tbs_monotone(idx, n_rb, n_sym, oh):
    mcs = link.MCS_TABLES["LEP"][idx]
    base = link.transport_block_size(mcs, n_rb, n_sym, 1, oh)
    assert link.transport_block_size(mcs, n_rb + 1, n_sym, 1, oh) >= base
    assert link.transport_block_size(mcs, n_rb, n_sym, 2, oh) >= base
    if n_sym < 14:
        assert link.transport_block_size(mcs, n_rb, n_sym + 1, 1, oh) >= base


def test_tbs_never_falls_as_rbs_grow():
    """The bisection in rbs_for_packet finds the smallest RB count only
    because the TBS never falls as RBs are added.  Checked over every RB
    count of a carrier, for every MCS of both tables, at each data-region
    length a transport block takes (4 and 7 symbols in a mini-slot, 11 to
    13 in a full slot)."""
    for table, n_sym, layers, oh in itertools.product(
            link.MCS_TABLES.values(), (4, 7, 11, 12, 13), (1, 2), (0, 12, 24)):
        for mcs in table:
            sizes = [link.transport_block_size(mcs, n_rb, n_sym, layers, oh)
                     for n_rb in range(1, 276)]
            assert sizes == sorted(sizes), (mcs.index, n_sym, layers, oh)


def test_rbs_for_packet_inverts_tbs():
    rng = random.Random(11)
    for _ in range(300):
        table = rng.choice(("LEP", "HEP"))
        mcs = rng.choice(link.MCS_TABLES[table])
        n_sym = rng.randint(2, 13)
        payload = rng.randint(100, 6000)
        n = link.rbs_for_packet(payload, mcs, n_sym)
        assert link.transport_block_size(mcs, n, n_sym) >= payload
        if n > 1:
            assert link.transport_block_size(mcs, n - 1, n_sym) < payload


def test_rbs_for_packet_footprint_ordering():
    # HEP never needs fewer RBs than LEP at the same CQI rank and geometry
    for cqi in range(1, 16):
        lep = link.rbs_for_packet(2400, link.mcs_from_cqi(cqi, "LEP"), 13)
        hep = link.rbs_for_packet(2400, link.mcs_from_cqi(cqi, "HEP"), 13)
        assert hep >= lep
    # more symbols never needs more RBs
    mcs = link.mcs_from_cqi(10, "LEP")
    rb7 = link.rbs_for_packet(2400, mcs, 7)
    rb13 = link.rbs_for_packet(2400, mcs, 13)
    assert rb13 <= rb7


def test_rbs_for_packet_infeasible():
    tiny = link.MCS_TABLES["HEP"][0]
    with pytest.raises(link.AllocationInfeasible):
        link.rbs_for_packet(4800, tiny, 2, max_rb=11)


def test_mean_rb_anchor_calibration():
    # calibrated default map: mean RB per 300-byte packet over the uniform
    # vehicle distribution (full-slot data regions: 13 symbols NCP, 11 ECP)
    lep_ncp = link.mean_rbs_over_cell("LEP", 13)
    hep_ncp = link.mean_rbs_over_cell("HEP", 13)
    lep_ecp = link.mean_rbs_over_cell("LEP", 11)
    assert lep_ncp == pytest.approx(2.5, rel=0.15)
    assert hep_ncp == pytest.approx(6.6, rel=0.15)
    assert lep_ecp > lep_ncp
