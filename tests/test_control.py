"""Control-plane tests: SR access delay closed form and the DCI FIFO against
an independent straight-line queue simulation."""


import random
from collections import deque

import numpy as np
import pytest

from nrv2x.control import DciQueue, SrConfig, sr_wait_slots
from nrv2x.phy import ControlConfig

CONF1 = ControlConfig(24, 1, 1, 1, "conf1")
CONF3 = ControlConfig(24, 1, 1, 1, "conf3", ideal=True)
SLOT = 336  # 30 kHz slot in ticks


# --- SR wait ------------------------------------------------------------------

def test_sr_config_from_control():
    sr = SrConfig.for_cell(CONF1, 100)
    assert sr.r_sr == 6
    assert sr.n_slots_sr == 17


def test_sr_wait_branches():
    sr = SrConfig(6, 17)
    assert sr_wait_slots(0.0, sr) == 0
    one = SrConfig(6, 1)
    for p in (0.01, 0.5, 0.999, 1.0):
        assert sr_wait_slots(p, one) == 0
    # support bound
    for p in np.linspace(0.001, 1.0, 97):
        w = sr_wait_slots(float(p), sr)
        assert 0 <= w <= sr.n_slots_sr - 1


def test_sr_wait_expectation_closed_form():
    # n_ue=100, r_sr=6 -> 17 opportunity slots; mean over uniform p is the
    # mean of {0..16} slots = 8 slots exactly.
    sr = SrConfig.for_cell(CONF1, 100)
    rng = np.random.default_rng(5)
    draws = rng.uniform(0.0, 1.0, 200_000)
    waits = np.array([sr_wait_slots(float(p), sr) for p in draws])
    assert waits.mean() == pytest.approx(8.0, abs=0.05)
    # distribution is uniform over the 17 multiples (chi-square, desk scale)
    counts = np.bincount(waits, minlength=17)
    expected = len(draws) / 17
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < 2 * 16  # ~p >> 0.001 for 16 dof


def test_sr_wait_ideal_control():
    sr = SrConfig.for_cell(CONF3, 1000)
    assert sr.ideal
    assert sr_wait_slots(0.73, sr) == 0


# --- DCI queue -----------------------------------------------------------------

def oracle_fifo_drains(arrivals, capacity, slot):
    """Straight-line discrete-time FIFO: walk slots, pop up to capacity
    eligible messages per slot, in arrival order."""
    pending = deque(sorted(arrivals))
    drains = []
    s = 0
    while pending:
        start = s * slot
        served = 0
        while pending and served < capacity and pending[0] < start:
            pending.popleft()
            drains.append(start)
            served += 1
        s += 1
    return drains


def test_dci_cannot_ride_current_pdcch():
    q = DciQueue(CONF1, SLOT)
    assert q.enqueue(0) == SLOT            # created exactly at a slot start
    q2 = DciQueue(CONF1, SLOT)
    assert q2.enqueue(SLOT - 1) == SLOT    # created mid-slot
    q3 = DciQueue(CONF1, SLOT)
    assert q3.enqueue(SLOT) == 2 * SLOT


def test_capacity_displacement():
    q = DciQueue(CONF1, SLOT)  # capacity 4/slot
    for _ in range(4):
        assert q.enqueue(10) == SLOT
    assert q.enqueue(10) == 2 * SLOT


def test_conf3_never_queues():
    q = DciQueue(CONF3, SLOT)
    for i in range(50):
        assert q.enqueue(i * 3) == (i * 3) // SLOT * SLOT + SLOT


def test_queue_matches_oracle_random_traces():
    rng = random.Random(23)
    for _ in range(60):
        capacity_cfg = ControlConfig(rng.choice((6, 12, 24, 36)), 1, 1, 1)
        n = rng.randint(1, 120)
        arrivals = sorted(rng.randint(0, 12 * SLOT) for _ in range(n))
        q = DciQueue(capacity_cfg, SLOT)
        got = [q.enqueue(a) for a in arrivals]
        want = oracle_fifo_drains(arrivals, capacity_cfg.n_rb_pdcch // 6, SLOT)
        assert got == want


def test_fifo_order_preserved():
    q = DciQueue(CONF1, SLOT)
    rng = random.Random(1)
    t = 0
    drains = []
    for _ in range(300):
        t += rng.randint(0, 40)
        drains.append(q.enqueue(t))
    assert drains == sorted(drains)


def test_variant_ordering_on_identical_traces():
    # mean queueing delay: ideal <= expanded <= baseline on one arrival trace
    rng = random.Random(41)
    arrivals = sorted(rng.randint(0, 30 * SLOT) for _ in range(400))
    means = {}
    for name, ctrl in (("conf1", CONF1),
                       ("conf2", ControlConfig(144, 1, 8, 1, "conf2")),
                       ("conf3", CONF3)):
        q = DciQueue(ctrl, SLOT)
        means[name] = sum(q.enqueue(a) - a for a in arrivals) / len(arrivals)
    assert means["conf3"] <= means["conf2"] <= means["conf1"]
