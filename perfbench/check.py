"""Output checks and result digest for the replications a workload runs.

Simulated drops and HARQ failures are outputs of the model, not errors; a
replication fails the check only when its summary is inconsistent.
"""

from __future__ import annotations

import hashlib

import numpy as np

from nrv2x import phy
from nrv2x.engine import ReplicationSummary

_COUNTS = ("n_generated", "n_delivered", "n_dropped", "n_failed", "n_unallocatable")
_SAMPLES = ("total_ms", "ul_ms", "dl_ms")


def violations(s: ReplicationSummary) -> list[str]:
    """Every way in which one replication summary is inconsistent."""
    out = []
    if s.n_generated != s.n_delivered + s.n_dropped + s.n_failed:
        out.append(f"generated {s.n_generated} != delivered {s.n_delivered} + "
                   f"dropped {s.n_dropped} + failed {s.n_failed}")
    if not 0 <= s.n_unallocatable <= s.n_dropped + s.n_failed:
        out.append(f"unallocatable {s.n_unallocatable} outside [0, undelivered]")
    arrays = {name: np.asarray(getattr(s, name), dtype=float) for name in _SAMPLES}
    for name, values in arrays.items():
        if values.shape != (s.n_delivered,):
            out.append(f"{name} holds {values.shape} samples for {s.n_delivered} deliveries")
        elif not (np.isfinite(values).all() and (values >= 0).all()):
            out.append(f"{name} has a negative or non-finite latency")
    if not out:
        # latencies are whole ticks, so the leg sum is exact on the tick grid
        ticks = {name: np.rint(v * phy.TICKS_PER_MS).astype(np.int64)
                 for name, v in arrays.items()}
        if not np.array_equal(ticks["total_ms"], ticks["ul_ms"] + ticks["dl_ms"]):
            out.append("total_ms != ul_ms + dl_ms")
    for name in ("util_ul", "util_dl"):
        value = getattr(s, name)
        if not 0.0 <= value <= 1.0:
            out.append(f"{name} = {value!r} outside [0, 1]")
    return out


def digest(summaries: list[ReplicationSummary]) -> str:
    """SHA-256 over every field of every summary, in replication order."""
    h = hashlib.sha256()
    for s in summaries:
        h.update(np.array([getattr(s, n) for n in _COUNTS], dtype=np.int64).tobytes())
        for name in _SAMPLES:
            h.update(np.ascontiguousarray(getattr(s, name), dtype=np.float64).tobytes())
        h.update(np.array([s.util_ul, s.util_dl], dtype=np.float64).tobytes())
    return h.hexdigest()
