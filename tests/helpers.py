"""Builders shared by the unit tests.

A plain module rather than conftest.py: a pytest run that also collects
perfbench/tests has a second conftest, and `from conftest import ...` then
resolves to whichever was imported first."""

import numpy as np

from nrv2x import engine
from nrv2x import phy
from nrv2x.control import RadioContext
from nrv2x.grid import SlotGrid


def make_context(scs=30, control_variant="conf1", n_ue=50, seed=0):
    """Quiescent RadioContext (the shared control plane) for unit-level
    latency composition tests."""
    num = phy.numerology(scs)
    return RadioContext(num, phy.processing_times(num.mu, 2),
                        phy.control_config(control_variant), n_ue,
                        np.random.default_rng(seed))


def make_slot_grid(scs=30, direction="UL", slot_type="full", bw=20, control_variant="conf1"):
    """Empty data grid of one direction, built for the slot type's burst length."""
    return SlotGrid(phy.numerology(scs), phy.total_rbs(bw, scs),
                    phy.control_config(control_variant), direction,
                    engine.SLOT_SYMBOLS[slot_type])


# A world of one vehicle (0.1 veh/km/lane on the cell's six lanes: 1.04
# vehicles, rounded to 1) sending a packet every 100 ms: every hop meets
# otherwise empty grids and queues.
ONE_VEHICLE = dict(density_veh_km_lane=0.1, interval_ms=100.0,
                   horizon_ms=1000.0, warmup_ms=100.0)


def replicate(cfg, ok=None, seed=0):
    """Run one replication with a packet trace; returns (replication, rows).

    With `ok`, every attempt's outcome is `ok(leg)` instead of a random draw.
    """
    cls = engine._Replication
    if ok is not None:
        class Forced(engine._Replication):
            def _attempt_ok(self, leg):
                return ok(leg)
        cls = Forced
    rows = []
    rep = cls(cfg, np.random.default_rng(seed), rows)
    # a lossless replication asks for no outcome, so none can be forced on it
    assert ok is None or not rep._lossless, "forced outcomes need a lossy configuration"
    rep.run()
    return rep, rows


def rows_by_packet(rows) -> dict:
    """Trace rows grouped per packet, leg 0 (the uplink) first."""
    out = {}
    for row in rows:
        out.setdefault((row["vehicle"], row["gen_ms"]), []).append(row)
    return out


def ticks(ms: float) -> int:
    """A trace row's millisecond value back on the tick grid."""
    return round(ms * phy.TICKS_PER_MS)
