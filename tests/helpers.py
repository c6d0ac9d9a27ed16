"""Builders shared by the unit tests.

A plain module rather than conftest.py: a pytest run that also collects
perfbench/tests has a second conftest, and `from conftest import ...` then
resolves to whichever was imported first."""

import numpy as np

from nrv2x import control as ctl
from nrv2x import latency as lat
from nrv2x import phy
from nrv2x.grid import SlotGrid


def make_context(scs=30, bw=20, scheme=None, control_variant=None, n_ue=50, seed=0):
    """Quiescent RadioContext for unit-level latency composition tests."""
    scheme = scheme or lat.SchemeConfig()
    num = phy.numerology(scs)
    proc = phy.processing_times(num.mu, 2)
    control = phy.control_config(control_variant or scheme.control_variant)
    n_rb = phy.total_rbs(bw, scs)
    return lat.RadioContext(
        num, proc, control, scheme,
        SlotGrid(num, n_rb, control, "UL"),
        SlotGrid(num, n_rb, control, "DL"),
        ctl.DciQueue(control, num.slot_ticks),
        ctl.SrConfig.for_cell(control, n_ue),
        np.random.default_rng(seed),
    )
