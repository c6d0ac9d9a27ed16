import numpy as np
import pytest
from scipy import stats as sps

from nrv2x import engine, link, phy, scenario as scn
from nrv2x.engine import RunConfig, run_replication


def test_vehicle_counts_from_density():
    assert scn.vehicle_count(10) == 104
    assert scn.vehicle_count(80) == 831
    assert scn.vehicle_count(60) == 624


def test_placement_uniform_and_within_cell():
    rng = np.random.default_rng(1)
    vehicles = scn.place_vehicles(80, rng)
    assert len(vehicles) == 831
    pos = np.array([v.position_m for v in vehicles])
    assert (np.abs(pos) <= 866.0).all()
    # uniformity over the covered segment at desk scale
    _, p = sps.kstest((pos + 866) / 1732, "uniform")
    assert p > 1e-3
    # nearer vehicles never report worse channel quality
    by_distance = sorted(vehicles, key=lambda v: abs(v.position_m))
    cqis = [v.cqi for v in by_distance]
    assert all(a >= b for a, b in zip(cqis, cqis[1:]))


def test_periodic_arrivals():
    rng = np.random.default_rng(2)
    times, counts = scn.generate_arrivals("periodic", 20.0, 200.0, 1, rng)
    assert counts.tolist() == [len(times)]
    in_horizon = times[times < phy.ms_to_ticks(200.0)]
    assert len(in_horizon) == 10
    gaps = np.diff(times)
    assert (gaps == phy.ms_to_ticks(20.0)).all()
    # at least one arrival beyond the horizon for the staleness deadline
    assert times[-1] >= phy.ms_to_ticks(200.0)


def test_aperiodic_gap_distribution():
    rng = np.random.default_rng(3)
    times, _ = scn.generate_arrivals("aperiodic", 20.0, 2_000_000.0, 1, rng)
    gaps = np.diff(times) / phy.TICKS_PER_MS
    assert gaps.min() >= 10.0 - 1e-9          # never below half the average
    assert gaps.mean() == pytest.approx(20.0, rel=0.02)


def test_per_vehicle_phases_differ():
    rng = np.random.default_rng(4)
    times, counts = scn.generate_arrivals("periodic", 100.0, 500.0, 50, rng)
    phases = set(times[np.cumsum(counts) - counts].tolist())
    assert len(phases) > 40


@pytest.mark.parametrize("interval_ms, horizon_ms", [
    (20.0, 990.0), (50.0, 990.0), (100.0, 990.0), (3 / phy.TICKS_PER_MS, 1.0),
], ids=["20ms", "50ms", "100ms", "3ticks"])
@pytest.mark.parametrize("seed", [0, 31, 2**40 + 7])
def test_periodic_world_equals_per_vehicle_draws(seed, interval_ms, horizon_ms):
    """One vector draw of the phases gives every vehicle the arrivals that
    one scalar draw per vehicle gives, and leaves the generator where those
    draws leave it.  Each vehicle's list ends at its first arrival at or
    after the horizon.  The 990 ms horizon is no whole number of periods, so
    vehicles differ in their counts; with a 3-tick period and a 1 ms horizon
    a third of the vehicles have an arrival on the horizon itself, which
    ends their list."""
    n_ue = 624
    vector, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    times, counts = scn.generate_arrivals("periodic", interval_ms, horizon_ms, n_ue, vector)
    period, horizon = phy.ms_to_ticks(interval_ms), phy.ms_to_ticks(horizon_ms)
    want = []
    for _ in range(n_ue):
        phase = int(scalar.integers(0, period))
        ticks = (phase + period * np.arange(horizon // period + 2)).tolist()
        want.append(ticks[:next(i for i, t in enumerate(ticks) if t >= horizon) + 1])
    assert counts.tolist() == [len(w) for w in want]
    assert len(set(counts.tolist())) == (1 if horizon % period == 0 else 2)
    assert times.tolist() == [t for w in want for t in w]
    assert vector.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("density", [10, 60, 80])
def test_vehicle_cqis_equal_the_map_lookup(density):
    """The CQIs found by one search over the map's bounds are those the
    map's own lookup gives each vehicle."""
    cqi_map = link.linear_cqi_map()
    edges = [0.0] + [bound for bound, _ in cqi_map]

    class OnTheEdges:
        """Puts the vehicles on the map's bin edges, on both sides of the gNB."""

        def uniform(self, low, high, size):
            return np.resize(edges + [-e for e in edges], size)

    for rng in (np.random.default_rng(density), OnTheEdges()):
        vehicles = scn.place_vehicles(density, rng)
        assert len(vehicles) == scn.vehicle_count(density)
        assert [v.cqi for v in vehicles] == [
            link.cqi_from_distance(abs(v.position_m), cqi_map) for v in vehicles]


def test_vehicle_past_the_map_is_refused(monkeypatch):
    monkeypatch.setattr(scn, "CELL_RADIUS_M", 2 * link.CELL_RADIUS_M)
    with pytest.raises(phy.ConfigurationError):
        scn.place_vehicles(80, np.random.default_rng(7))


def test_nearest_neighbours_match_bruteforce():
    rng = np.random.default_rng(5)
    vehicles = scn.place_vehicles(10, rng)
    m = 4
    fast = scn.nearest_neighbours(vehicles, m)
    for v in vehicles:
        dist = sorted(
            (abs(o.position_m - v.position_m), o.id)
            for o in vehicles if o.id != v.id
        )
        expected = {vid for _, vid in dist[:m]}
        got = set(fast[v.id])
        # sets may differ only on exact distance ties
        boundary = dist[m - 1][0]
        for vid in got ^ expected:
            d = abs(vehicles[vid].position_m - v.position_m)
            assert d == pytest.approx(boundary)
    with pytest.raises(phy.ConfigurationError):
        scn.nearest_neighbours(vehicles[:3], 3)


def test_traffic_model_validation():
    """Traffic is checked where it is configured, on the RunConfig: the
    interval must be at least one tick, or a periodic phase has no range."""
    for interval in (0.0, -5.0, 0.0001):
        with pytest.raises(phy.ConfigurationError):
            RunConfig(interval_ms=interval)
    assert RunConfig(interval_ms=1 / phy.TICKS_PER_MS).interval_ms > 0


@pytest.mark.parametrize("distance_m, cqi", [(500.0, 10), (1000.0, None)],
                         ids=["500.0", "1000.0"])
def test_cqi_map_spans_the_configured_cell(distance_m, cqi):
    """The distance -> CQI map covers the 866 m cell and no more: vehicles
    anywhere in the cell get a CQI, the edge CQI is reached at its edge, and a
    distance past the edge is refused rather than given a CQI."""
    cfg = RunConfig(horizon_ms=300.0, warmup_ms=100.0)
    rep = engine._Replication(cfg, np.random.default_rng(6))
    assert max(abs(v.position_m) for v in rep.vehicles) <= link.CELL_RADIUS_M
    assert {v.cqi for v in rep.vehicles} == set(range(link.EDGE_CQI, 16))
    cqi_map = link.linear_cqi_map()
    assert cqi_map[-1] == (pytest.approx(link.CELL_RADIUS_M), link.EDGE_CQI)
    if cqi is None:
        with pytest.raises(phy.ConfigurationError):
            link.cqi_from_distance(distance_m, cqi_map)
    else:
        assert link.cqi_from_distance(distance_m, cqi_map) == cqi
    run_replication(cfg, np.random.default_rng(6))


@pytest.mark.parametrize("change", [
    dict(dl_cast="unicast", unicast_m=2),
    dict(mcs_table="HEP"),
    dict(scheduling="dynamic"),
    dict(slot_type="mini4"),
    dict(scs_khz=60),
    dict(retransmission="harq", harq_max_retx=2),
], ids=["broadcast_unicast", "lep_hep", "semi_static_dynamic", "full_mini4", "30_60khz",
        "none_harq"])
def test_world_is_common_to_configurations_that_share_the_scenario(change):
    """Replication i's world (vehicle positions, then the arrival stream) is
    drawn first from its generator and depends only on the scenario, so two
    configurations that differ in the radio scheme share every world, and
    their run-time draws start at the same point of the stream.  Paired
    comparisons across such configurations rest on this."""
    base = dict(density_veh_km_lane=10, traffic="aperiodic", interval_ms=20.0,
                horizon_ms=300.0, warmup_ms=100.0, seed=4)
    for seed in np.random.SeedSequence(4).spawn(2):
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        reps = [engine._Replication(RunConfig(**fields), rng)
                for fields, rng in zip((base, {**base, **change}), rngs)]
        a, b = ([(v.position_m, v.cqi) for v in rep.vehicles] for rep in reps)
        assert a == b and len(a) > 50
        assert np.array_equal(reps[0].arrivals, reps[1].arrivals)
        assert len(reps[0].arrivals) > 1000
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
