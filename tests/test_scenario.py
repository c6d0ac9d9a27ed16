import numpy as np
import pytest
from scipy import stats as sps

from nrv2x import link, phy, scenario as scn


def test_vehicle_counts_from_density():
    assert scn.vehicle_count(10) == 104
    assert scn.vehicle_count(80) == 831
    assert scn.vehicle_count(60) == 624


def test_placement_uniform_and_within_cell():
    rng = np.random.default_rng(1)
    prof = link.default_link_profile("LEP")
    vehicles = scn.place_vehicles(80, prof, rng)
    assert len(vehicles) == 831
    pos = np.array([v.position_m for v in vehicles])
    assert (np.abs(pos) <= 866.0).all()
    assert all(v.distance_m == abs(v.position_m) for v in vehicles)
    assert all(1 <= v.lane <= 6 for v in vehicles)
    # uniformity over the covered segment at desk scale
    _, p = sps.kstest((pos + 866) / 1732, "uniform")
    assert p > 1e-3
    # nearer vehicles never report worse channel quality
    by_distance = sorted(vehicles, key=lambda v: v.distance_m)
    cqis = [v.cqi for v in by_distance]
    assert all(a >= b for a, b in zip(cqis, cqis[1:]))


def test_periodic_arrivals():
    rng = np.random.default_rng(2)
    model = scn.TrafficModel("periodic", 20.0)
    times = scn.generate_arrivals(model, 200.0, rng)
    in_horizon = times[times < phy.ms_to_ticks(200.0)]
    assert len(in_horizon) == 10
    gaps = np.diff(times)
    assert (gaps == phy.ms_to_ticks(20.0)).all()
    # at least one arrival beyond the horizon for the staleness deadline
    assert times[-1] >= phy.ms_to_ticks(200.0)


def test_aperiodic_gap_distribution():
    rng = np.random.default_rng(3)
    model = scn.TrafficModel("aperiodic", 20.0)
    times = scn.generate_arrivals(model, 2_000_000.0, rng)
    gaps = np.diff(times) / phy.TICKS_PER_MS
    assert gaps.min() >= 10.0 - 1e-9          # never below half the average
    assert gaps.mean() == pytest.approx(20.0, rel=0.02)


def test_per_vehicle_phases_differ():
    rng = np.random.default_rng(4)
    model = scn.TrafficModel("periodic", 100.0)
    phases = {int(scn.generate_arrivals(model, 500.0, rng)[0]) for _ in range(50)}
    assert len(phases) > 40


def test_nearest_neighbours_match_bruteforce():
    rng = np.random.default_rng(5)
    prof = link.default_link_profile("LEP")
    vehicles = scn.place_vehicles(10, prof, rng)
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
    with pytest.raises(phy.ConfigurationError):
        scn.TrafficModel("bursty", 20.0)
    with pytest.raises(phy.ConfigurationError):
        scn.TrafficModel("periodic", 0.0)
    assert scn.TrafficModel("periodic", 20.0).packet_bits == 2400


def test_scenario_dump_roundtrip():
    import json

    rng = np.random.default_rng(6)
    prof = link.default_link_profile("HEP")
    vehicles = scn.place_vehicles(10, prof, rng)
    model = scn.TrafficModel("aperiodic", 20.0)
    arrivals = [scn.generate_arrivals(model, 100.0, rng) for _ in vehicles]
    doc = json.loads(json.dumps(scn.dump_scenario(vehicles, arrivals)))
    back_v, back_a = scn.load_scenario(doc)
    assert back_v == vehicles
    assert all((a == b).all() for a, b in zip(back_a, arrivals))
