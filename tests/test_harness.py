import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from freqroute import (
    GenSpec,
    LinkGraph,
    Metric,
    Optimum,
    Scenario,
    astar,
    best_routes_from,
    build_link_graph,
    compare_routes,
    cross_check,
    cross_check_batch,
    generate_scenario,
    lowest_connected_pair,
    run_sweep,
    run_sweep_fixed,
    summarize_sweep,
    sweep_csv,
)
from freqroute import harness
from conftest import components_lowest_pair, fleet_3000, make_vehicle, route_from_sequence


def template(**overrides):
    base = dict(
        seed=0,
        vehicle_count=8,
        area=(500.0, 500.0),
        comm_range=200.0,
        radios_per_vehicle=1,
        frequency_pool=(1,),
        bandwidth_range=(2.0, 10.0),
    )
    base.update(overrides)
    return GenSpec(**base)


# --- endpoint picking ------------------------------------------------------


def test_lowest_connected_pair(diamond, bridge):
    assert lowest_connected_pair(build_link_graph(diamond)) == (1, 2)
    assert lowest_connected_pair(build_link_graph(bridge)) == (1, 2)


def test_lowest_connected_pair_skips_isolated():
    s = Scenario(
        (1000.0, 1000.0), 100.0,
        (
            make_vehicle(1, 900, 900, [(1, 1, 1.0)]),
            make_vehicle(2, 0, 0, [(1, 1, 1.0)]),
            make_vehicle(3, 50, 0, [(1, 1, 1.0)]),
        ),
    )
    assert lowest_connected_pair(build_link_graph(s)) == (2, 3)


def test_lowest_connected_pair_none():
    s = Scenario(
        (1000.0, 1000.0), 10.0,
        (make_vehicle(1, 0, 0, [(1, 1, 1.0)]), make_vehicle(2, 900, 900, [(1, 1, 1.0)])),
    )
    assert lowest_connected_pair(build_link_graph(s)) is None


@st.composite
def scattered_fleets(draw):
    """Up to 12 vehicles on a 50 m lattice with a 60 m range and two channels.

    Only lattice neighbours on a shared channel link, so most fleets mix
    isolated vehicles with small components. Ids are drawn from 1..60, not
    1..n, and the vehicles are listed in no particular id order.
    """
    ids = draw(st.lists(st.integers(1, 60), min_size=1, max_size=12, unique=True))
    cell = st.integers(0, 6).map(lambda k: 50.0 * k)
    return Scenario((300.0, 300.0), 60.0, tuple(
        make_vehicle(vid, draw(cell), draw(cell), [(1, draw(st.integers(1, 2)), 5.0)])
        for vid in ids
    ))


@given(scenario=scattered_fleets(), data=st.data())
def test_lowest_connected_pair_matches_components(scenario, data):
    g = build_link_graph(scenario)
    assert lowest_connected_pair(g) == components_lowest_pair(g)
    # the same links with the graph's vehicles listed out of id order
    order = data.draw(st.permutations(g.vehicle_ids))
    shuffled = LinkGraph({vid: g.neighbors(vid) for vid in order})
    assert lowest_connected_pair(shuffled) == components_lowest_pair(g)


def test_lowest_connected_pair_matches_components_on_sweep_rounds_and_fleet():
    # the 30 rounds of `freqroute sweep --rounds 30 --seed 100`, and a 3000-vehicle fleet
    spec = GenSpec(0, 30, (1000.0, 1000.0), 200.0, 1, (1,), (2.0, 10.0))
    scenarios = [generate_scenario(replace(spec, seed=100 + r)) for r in range(1, 31)]
    for scenario in scenarios + [fleet_3000(1)]:
        g = build_link_graph(scenario)
        pair = lowest_connected_pair(g)
        assert pair is not None and pair == components_lowest_pair(g)


# --- compare ---------------------------------------------------------------


def test_compare_relay_tradeoff(diamond):
    g = build_link_graph(diamond)
    routes = compare_routes(diamond, g, 1, 4)
    assert list(routes) == list(Metric)
    dist, bw = routes[Metric.DISTANCE], routes[Metric.BANDWIDTH]
    assert dist == astar(diamond, g, 1, 4, Metric.DISTANCE)
    assert bw == astar(diamond, g, 1, 4, Metric.BANDWIDTH)
    assert dist.vehicle_sequence == (1, 2, 4)
    assert bw.vehicle_sequence == (1, 3, 4)
    assert bw.stats.avg_bandwidth - dist.stats.avg_bandwidth == pytest.approx(4.0)
    assert bw.stats.total_distance - dist.stats.total_distance == pytest.approx(16.2278, abs=1e-4)
    assert bw.stats.p_value < dist.stats.p_value


def test_compare_single_feasible_path(bridge):
    g = build_link_graph(bridge)
    routes = compare_routes(bridge, g, 1, 2)
    assert routes[Metric.DISTANCE] == routes[Metric.BANDWIDTH]
    assert routes[Metric.DISTANCE].vehicle_sequence == (1, 3, 2)


def test_compare_uniform_bandwidth_coincides(diamond):
    flat = Scenario(
        diamond.area,
        diamond.comm_range,
        tuple(
            make_vehicle(v.vehicle_id, *v.position, [(r.radio_id, r.frequency, 4.0) for r in v.radios])
            for v in diamond.vehicles
        ),
    )
    g = build_link_graph(flat)
    routes = compare_routes(flat, g, 1, 4)
    assert routes[Metric.DISTANCE].vehicle_sequence == routes[Metric.BANDWIDTH].vehicle_sequence


def test_compare_not_found():
    s = Scenario(
        (1000.0, 1000.0), 10.0,
        (make_vehicle(1, 0, 0, [(1, 1, 1.0)]), make_vehicle(2, 900, 900, [(1, 1, 1.0)])),
    )
    routes = compare_routes(s, build_link_graph(s), 1, 2)
    assert list(routes.items()) == [(metric, None) for metric in Metric]


# --- sweep -----------------------------------------------------------------


def test_sweep_rows_and_seeds():
    rows = run_sweep(template(), rounds=5, base_seed=500)
    assert len(rows) == 10
    assert [r.round for r in rows] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    assert [r.seed for r in rows[::2]] == [501, 502, 503, 504, 505]
    assert [r.metric for r in rows[:2]] == ["distance", "bandwidth"]


def test_sweep_reproducible():
    a = run_sweep(template(), rounds=4, base_seed=77)
    b = run_sweep(template(), rounds=4, base_seed=77)
    assert a == b
    assert sweep_csv(a) == sweep_csv(b)


def test_sweep_csv_format():
    rows = run_sweep(template(), rounds=2, base_seed=500)
    text = sweep_csv(rows)
    lines = text.split("\n")
    assert lines[0] == "round,seed,metric,found,hops,total_distance,avg_bandwidth,p_value"
    assert text.endswith("\n") and "\r" not in text
    for line in lines[1:-1]:
        fields = line.split(",")
        assert len(fields) == 8
        if fields[3] == "true":
            assert all("." in f and len(f.split(".")[1]) == 4 for f in fields[5:])
        else:
            assert fields[4:] == ["", "", "", ""]


def test_sweep_unreachable_round_recorded_empty():
    t = template(vehicle_count=2, area=(5000.0, 5000.0), comm_range=1.0)
    rows = run_sweep(t, rounds=2, base_seed=1)
    assert len(rows) == 4
    assert all(r.stats is None for r in rows)
    for line in sweep_csv(rows).splitlines()[1:]:
        assert line.endswith("false,,,,")


def test_sweep_fixed_matches_compare(diamond):
    g = build_link_graph(diamond)
    routes = compare_routes(diamond, g, 1, 4)
    rows = run_sweep_fixed(diamond, rounds=1, source=1, dest=4)
    assert rows[0].seed == 0 and rows[1].seed == 0
    assert [(r.metric, r.stats) for r in rows] == [
        (metric.value, route.stats) for metric, route in routes.items()
    ]


def test_sweep_fixed_answers_once(diamond, monkeypatch):
    calls = []

    def counting_astar(*args):
        calls.append(args)
        return astar(*args)

    monkeypatch.setattr(harness, "astar", counting_astar)
    rows = run_sweep_fixed(diamond, rounds=5, source=1, dest=4)
    assert len(calls) == 2
    assert [r.round for r in rows] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    once = run_sweep_fixed(diamond, rounds=1, source=1, dest=4)
    assert [replace(r, round=1) for r in rows] == once * 5
    assert all(r.stats is not None for r in once)


def test_sweep_fixed_auto_picks_pair(diamond):
    rows = run_sweep_fixed(diamond, rounds=1)
    g = build_link_graph(diamond)
    r = astar(diamond, g, 1, 2, Metric.DISTANCE)
    assert rows[0].stats == r.stats


def test_sweep_rejects_equal_endpoints(diamond):
    with pytest.raises(ValueError, match="^source and dest must differ$"):
        run_sweep_fixed(diamond, rounds=1, source=1, dest=1)
    with pytest.raises(ValueError, match="^source and dest must differ$"):
        run_sweep(template(), rounds=1, base_seed=0, source=2, dest=2)


def test_sweep_rejects_half_specified_endpoints(diamond):
    with pytest.raises(ValueError):
        run_sweep_fixed(diamond, rounds=1, source=1, dest=None)
    with pytest.raises(ValueError, match="^rounds must be >= 1, got 0$"):
        run_sweep(template(), rounds=0, base_seed=0)


def test_summarize_sweep():
    rows = run_sweep(template(), rounds=6, base_seed=500)
    summary = summarize_sweep(rows)
    for name in ("distance", "bandwidth"):
        found = [r.stats for r in rows if r.metric == name and r.stats is not None]
        s = summary[name]
        assert set(s) == {"rounds_with_route", "mean_total_distance",
                          "mean_avg_bandwidth", "mean_p_value"}
        assert s["rounds_with_route"] == len(found)
        assert s["mean_avg_bandwidth"] == pytest.approx(
            sum(f.avg_bandwidth for f in found) / len(found)
        )


# --- oracle cross-checks ---------------------------------------------------


def test_cross_check_relay_scenario(diamond):
    rep = cross_check(diamond)
    assert rep.connected_pairs == 12
    assert list(rep.checks) == [Metric.DISTANCE, Metric.BANDWIDTH]
    distance, bandwidth = rep.checks.values()
    assert distance.matched == 12
    assert distance.match_rate == 1.0
    assert distance.worst_gap == 0.0
    # queries out of the slow vehicle terminate before the fast detour
    assert bandwidth.matched == 10
    assert bandwidth.match_rate == pytest.approx(10 / 12)
    p_direct = 150.0 / 10.0
    p_detour = (50.0 + math.hypot(150.0, 50.0)) / 20.0
    assert bandwidth.worst_gap == pytest.approx((p_direct - p_detour) / p_detour)


def test_cross_check_chain_scenario(bridge):
    rep = cross_check(bridge)
    assert rep.connected_pairs == 6
    assert rep.checks[Metric.DISTANCE].match_rate == 1.0
    assert rep.checks[Metric.BANDWIDTH].match_rate == 1.0


def test_cross_check_at_the_oracle_limit():
    # a chain of the largest fleet the oracle takes: 150 m apart with a 200 m
    # range, so each vehicle links only to its neighbours and the walk has to
    # go all the way down to reach the far end
    n = harness.ORACLE_MAX_VEHICLES
    assert n == 10
    s = Scenario((1500.0, 100.0), 200.0,
                 tuple(make_vehicle(vid, 150 * (vid - 1), 0, [(1, 1, float(vid))]) for vid in range(1, n + 1)))
    g = build_link_graph(s)
    # 9 hops of 150 m; the receivers' bandwidths 2..10 sum to 54
    assert best_routes_from(g, 1)[n] == {
        Metric.DISTANCE: Optimum(1350.0, tuple(range(1, n + 1))),
        Metric.BANDWIDTH: Optimum(1350.0 / 54.0, tuple(range(1, n + 1))),
    }
    rep = cross_check(s)
    assert rep.connected_pairs == 90
    for check in rep.checks.values():
        assert (check.matched, check.pairs) == (90, 90)


def test_cross_check_refuses_large_scenarios():
    s = generate_scenario(template(vehicle_count=11, seed=1, area=(2000.0, 2000.0)))
    with pytest.raises(ValueError, match="oracle bound"):
        cross_check(s)


def test_cross_check_batch_aggregates():
    t = template(area=(400.0, 400.0), seed=40, vehicle_count=4)
    total = cross_check_batch(t, count=6, max_vehicles=6)
    assert total.scenarios == 6
    singles = []
    for i in range(6):
        spec = GenSpec(
            seed=40 + i,
            vehicle_count=4 + (i % 3),
            area=t.area,
            comm_range=t.comm_range,
            radios_per_vehicle=t.radios_per_vehicle,
            frequency_pool=t.frequency_pool,
            bandwidth_range=t.bandwidth_range,
        )
        singles.append(cross_check(generate_scenario(spec)))
    assert total.connected_pairs == sum(r.connected_pairs for r in singles)
    for metric, check in total.checks.items():
        assert check.pairs == sum(r.checks[metric].pairs for r in singles)
        assert check.matched == sum(r.checks[metric].matched for r in singles)
        assert check.worst_gap == max(r.checks[metric].worst_gap for r in singles)
    assert total.checks[Metric.DISTANCE].match_rate == 1.0


def test_cross_check_batch_rejects_bad_counts():
    with pytest.raises(ValueError):
        cross_check_batch(template(vehicle_count=8), count=2, max_vehicles=11)
    with pytest.raises(ValueError):
        cross_check_batch(template(vehicle_count=4), count=0, max_vehicles=5)


def test_ratio_search_never_beats_its_oracle_and_bounds_shortest():
    # wherever the ratio search matches the true optimum, its p cannot exceed
    # the p of the distance-minimal route (the optimum bounds every path)
    for seed in range(6):
        s = generate_scenario(template(seed=900 + seed, vehicle_count=7))
        g = build_link_graph(s)
        for source in g.vehicle_ids:
            optima = best_routes_from(g, source)
            for dest, best in optima.items():
                r = astar(s, g, source, dest, Metric.BANDWIDTH)
                p_opt = best[Metric.BANDWIDTH].cost
                assert r.stats.p_value >= p_opt - 1e-9
                if abs(r.stats.p_value - p_opt) <= 1e-9:
                    shortest = route_from_sequence(g, best[Metric.DISTANCE].vehicle_sequence).stats
                    assert shortest.total_distance == best[Metric.DISTANCE].cost
                    assert r.stats.p_value <= shortest.p_value + 1e-9


def test_p_ordering_holds_when_ratio_check_is_clean(bridge):
    rep = cross_check(bridge)
    assert rep.checks[Metric.BANDWIDTH].match_rate == 1.0
    g = build_link_graph(bridge)
    for source in g.vehicle_ids:
        for dest in g.vehicle_ids:
            if source == dest or astar(bridge, g, source, dest, Metric.DISTANCE) is None:
                continue
            routes = compare_routes(bridge, g, source, dest)
            assert routes[Metric.BANDWIDTH].stats.p_value <= routes[Metric.DISTANCE].stats.p_value
