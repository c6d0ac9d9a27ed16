"""The benchmark's workloads: fixed simulation work, generated from a seed.

One unit of a workload is its fixed work: a number of replications of one
configuration point, whose seed is the workload seed.  Running a unit twice
with the same seed repeats the same simulation bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from nrv2x import engine


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    settings: dict = field(default_factory=dict)  # RunConfig fields
    replications: int = 1
    through_run: bool = False  # drive engine.run (stopping rule, aggregate)

    def config(self, seed: int, horizon_ms: float | None = None) -> engine.RunConfig:
        cfg = engine.RunConfig(seed=seed, min_replications=self.replications,
                               max_replications=self.replications, **self.settings)
        return cfg if horizon_ms is None else replace(cfg, horizon_ms=horizon_ms)

    def _rngs(self, cfg: engine.RunConfig) -> list[np.random.Generator]:
        # engine.run spawns its replication streams the same way
        seeds = np.random.SeedSequence(cfg.seed).spawn(self.replications)
        return [np.random.default_rng(s) for s in seeds]

    def run_unit(self, cfg: engine.RunConfig):
        """The workload's fixed work; returns (summaries, report or None)."""
        if not self.through_run:
            return [engine.run_replication(cfg, rng) for rng in self._rngs(cfg)], None
        captured = []
        inner = engine.run_replication

        def capture(*args, **kwargs):
            summary = inner(*args, **kwargs)
            captured.append(summary)
            return summary

        engine.run_replication = capture
        try:
            report = engine.run(cfg)
        finally:
            engine.run_replication = inner
        return captured, report

    def build_first_world(self, cfg: engine.RunConfig) -> None:
        """Set up the first replication's world without running it."""
        engine._Replication(cfg, self._rngs(cfg)[0])


WORKLOADS = {w.name: w for w in (
    Workload(
        "flat_load",
        "paper's typical sweep point through engine.run; every allocation fits "
        "at its first probe, so heap, dispatch, chains, set-up and aggregation "
        "dominate",
        dict(scs_khz=30, bandwidth_mhz=20, slot_type="full", scheduling="semi_static",
             dl_cast="broadcast", mcs_table="LEP", traffic="periodic", interval_ms=20.0,
             density_veh_km_lane=40.0, horizon_ms=600.0, warmup_ms=200.0),
        replications=3,
        through_run=True,
    ),
    Workload(
        "overload_mini7",
        "criterion 8a configuration on a short horizon: an overloaded 60 kHz "
        "mini7 grid where first-fit rescans full slots, the allocator's worst case",
        dict(scs_khz=60, bandwidth_mhz=20, slot_type="mini7", scheduling="semi_static",
             dl_cast="broadcast", mcs_table="LEP", traffic="periodic", interval_ms=20.0,
             density_veh_km_lane=60.0, horizon_ms=100.0, warmup_ms=40.0),
        replications=1,
    ),
    Workload(
        "dynamic_harq_unicast",
        "only workload running the DCI queue, SR, grant and NACK chains, "
        "unicast legs and grid release: dynamic conf2 with HARQ",
        dict(scs_khz=30, bandwidth_mhz=20, slot_type="full", scheduling="dynamic",
             control_variant="conf2", retransmission="harq", harq_max_retx=2,
             dl_cast="unicast", unicast_m=3, mcs_table="LEP", traffic="aperiodic",
             interval_ms=20.0, density_veh_km_lane=20.0, horizon_ms=600.0,
             warmup_ms=200.0),
        replications=2,
    ),
)}
