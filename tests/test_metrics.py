import json
import math
import sys
from itertools import permutations

import pytest

from freqroute import (
    GenSpec,
    Hop,
    Metric,
    Radio,
    Route,
    RouteStats,
    Scenario,
    ScenarioValidationError,
    Vehicle,
    astar,
    best_routes_from,
    build_link_graph,
    generate_scenario,
    load_scenario,
    route_stats,
)
from conftest import find_link, make_vehicle, route_from_sequence

# The search's ordering value lives inside astar: under DISTANCE it is the
# distance walked plus the straight line to the goal, under BANDWIDTH that
# length over the receiving bandwidth summed so far. The tests below pin it
# through the routes it makes the search return.


def ordered_pairs(graph):
    return permutations(sorted(graph.vehicle_ids), 2)


def test_distance_f_at_goal(diamond, k4, bridge):
    # at the goal the ordering value is the distance walked, so the distance
    # search returns the exhaustive optimum's length bit for bit
    for s in (diamond, k4, bridge):
        g = build_link_graph(s)
        for src, dst in ordered_pairs(g):
            optima = best_routes_from(g, src)
            r = astar(s, g, src, dst, Metric.DISTANCE)
            assert (r is None) == (dst not in optima)
            if r is not None:
                assert r.stats.total_distance == optima[dst][Metric.DISTANCE].cost


def test_distance_f_adds_remaining_estimate():
    # 1-2-4 and 1-3-4 are both 10 m along a line, and relay 3 is nearer the
    # source. Ordered by the distance walked alone, 3 would close first and
    # carry the route; with the straight-line estimate added both relays
    # order at 6 + 4 = 4 + 6 = 10 and the tie goes to the lower id
    s = Scenario(
        (10.0, 10.0), 7.0,
        tuple(make_vehicle(vid, x, 0, [(1, 1, 5.0)]) for vid, x in ((1, 0), (2, 6), (3, 4), (4, 10))),
    )
    g = build_link_graph(s)
    r = astar(s, g, 1, 4, Metric.DISTANCE)
    assert r.vehicle_sequence == (1, 2, 4)
    assert r.stats.total_distance == 10.0


def test_ratio_f_source_is_zero(diamond, k4):
    # the source has no hops and so no bandwidth to divide by; it pops first
    # whatever its ordering value, and every ratio query from it succeeds
    for s in (diamond, k4):
        g = build_link_graph(s)
        for src, dst in ordered_pairs(g):
            r = astar(s, g, src, dst, Metric.BANDWIDTH)
            assert r.vehicle_sequence[0] == src and r.vehicle_sequence.count(src) == 1
            assert r.stats.p_value > 0


def test_ratio_f_partial_route():
    # from 1 the relay 2 is 50 m away at 5 kb/s, the destination 3 is
    # 111.80 m away at 10 kb/s. The relay's partial ratio counts the 100 m
    # still to go, (50 + 100) / 5 = 30, so it sorts after the destination's
    # 111.80 / 10 = 11.18 and the direct hop wins, although the relay route's
    # finished ratio, 150 / 15 = 10, is lower
    s = Scenario(
        (100.0, 100.0), 160.0,
        (
            make_vehicle(1, 0, 0, [(1, 1, 10.0)]),
            make_vehicle(2, 50, 0, [(1, 1, 5.0)]),
            make_vehicle(3, 50, 100, [(1, 1, 10.0)]),
        ),
    )
    g = build_link_graph(s)
    r = astar(s, g, 1, 3, Metric.BANDWIDTH)
    assert r.vehicle_sequence == (1, 3)
    assert abs(r.stats.p_value - 11.1803) <= 1e-4
    assert route_from_sequence(g, (1, 2, 3)).stats.p_value == 10.0


def test_ratio_f_zero_bw_sum_rejected():
    # a zero bandwidth would leave a ratio with nothing to divide by: such a
    # document does not load, and every link of a loaded scenario carries a
    # positive receiving bandwidth
    doc = {
        "area": {"width": 100, "height": 100},
        "comm_range": 50,
        "vehicles": [
            {"id": 1, "x": 0, "y": 0, "radios": [{"id": 1, "freq": 1, "bw": 0}]},
            {"id": 2, "x": 10, "y": 0, "radios": [{"id": 1, "freq": 1, "bw": 3}]},
        ],
    }
    with pytest.raises(ScenarioValidationError, match="vehicle 1 radio 1: bw must be > 0, got 0.0"):
        load_scenario(json.dumps(doc))
    s = generate_scenario(GenSpec(3, 12, (300.0, 300.0), 200.0, 2, (1, 2), (0.01, 0.04)))
    g = build_link_graph(s)
    assert g.link_count() > 0
    assert all(l.bandwidth > 0 for vid in g.vehicle_ids for l in g.neighbors(vid))


def scaled_bandwidths(scenario, c):
    return Scenario(
        scenario.area,
        scenario.comm_range,
        tuple(
            Vehicle(v.vehicle_id, v.position,
                    tuple(Radio(r.radio_id, r.frequency, r.bandwidth * c) for r in v.radios))
            for v in scenario.vehicles
        ),
    )


def test_ratio_f_scale_covariance():
    # scaling every bandwidth by c scales every ratio by 1/c: the ratio
    # search returns the same hops, and p scales by 1/c (by a power of two,
    # exactly)
    for seed in range(6):
        s = generate_scenario(GenSpec(seed, 10, (500.0, 500.0), 200.0, 2, (1, 2), (2.0, 10.0)))
        g = build_link_graph(s)
        for c in (0.5, 2.0, 8.0):
            sc = scaled_bandwidths(s, c)
            gc = build_link_graph(sc)
            for src, dst in ordered_pairs(g):
                base = astar(s, g, src, dst, Metric.BANDWIDTH)
                scaled = astar(sc, gc, src, dst, Metric.BANDWIDTH)
                if base is None:
                    assert scaled is None
                    continue
                assert [(h.vehicle_id, h.radio_pair, h.distance) for h in scaled.hops] == [
                    (h.vehicle_id, h.radio_pair, h.distance) for h in base.hops
                ]
                assert scaled.stats.p_value == base.stats.p_value / c


def test_complete_route_p_equals_f_at_goal(diamond, k4):
    # at the goal the ratio ordering value is the finished ratio, distance
    # sum over bandwidth sum: whenever the ratio search returns the oracle's
    # route, the two costs agree bit for bit
    for s in (diamond, k4):
        g = build_link_graph(s)
        matched = 0
        for src in g.vehicle_ids:
            optima = best_routes_from(g, src)
            for dst, routes in optima.items():
                r = astar(s, g, src, dst, Metric.BANDWIDTH)
                total = sum(h.distance for h in r.hops)
                assert r.stats.p_value == total / sum(h.bandwidth for h in r.hops)
                oracle = routes[Metric.BANDWIDTH]
                assert oracle.cost == route_from_sequence(g, oracle.vehicle_sequence).stats.p_value
                if r.vehicle_sequence == oracle.vehicle_sequence:
                    matched += 1
                    assert r.stats.p_value == oracle.cost
        assert matched > 0


def test_extend_first_hop(diamond):
    # one hop adds its link distance and its receiving radio's bandwidth
    g = build_link_graph(diamond)
    r = astar(diamond, g, 1, 2, Metric.DISTANCE)
    assert r.hops == (Hop(2, (1, 1), 150.0, 2.0),)
    assert r.stats == RouteStats(150.0, 2.0, 75.0, 1)


def test_extend_second_hop(diamond):
    g = build_link_graph(diamond)
    r = astar(diamond, g, 1, 4, Metric.DISTANCE)
    assert r.hops == (Hop(2, (1, 1), 150.0, 2.0), Hop(4, (1, 1), 150.0, 10.0))
    assert r.stats == RouteStats(300.0, 6.0, 25.0, 2)


def test_extend_zero_distance_edge():
    # two vehicles on one spot link at distance 0; the hop still adds its
    # receiving bandwidth
    s = Scenario(
        (300.0, 300.0), 200.0,
        (
            make_vehicle(1, 0, 0, [(1, 1, 4.0)]),
            make_vehicle(2, 150, 0, [(1, 1, 2.0)]),
            make_vehicle(3, 150, 0, [(1, 1, 5.0)]),
        ),
    )
    g = build_link_graph(s)
    assert find_link(g, 2, 3).distance == 0.0
    r = route_from_sequence(g, (1, 2, 3))
    assert [(h.distance, h.bandwidth) for h in r.hops] == [(150.0, 2.0), (0.0, 5.0)]
    assert r.stats == RouteStats(150.0, 3.5, 150.0 / 7.0, 2)


def test_extend_rejects_bad_inputs():
    # what a hop could add is checked when the scenario loads: bandwidths
    # must be positive and finite, and positions finite, so no link has a
    # negative, infinite or NaN distance
    for field, value, message in (
        ("bw", 0.0, "vehicle 1 radio 1: bw must be > 0, got 0.0"),
        ("bw", -2.0, "vehicle 1 radio 1: bw must be > 0, got -2.0"),
        ("bw", math.inf, "vehicle 1 radio 1: bw must be finite, got inf"),
        ("x", -math.inf, "vehicle 1: x must be finite, got -inf"),
    ):
        radio = {"id": 1, "freq": 1, "bw": 2.0}
        vehicle = {"id": 1, "x": 0.0, "y": 0.0, "radios": [radio]}
        (radio if field == "bw" else vehicle)[field] = value
        doc = {"area": {"width": 100, "height": 100}, "comm_range": 50, "vehicles": [vehicle]}
        with pytest.raises(ScenarioValidationError, match=message):
            load_scenario(json.dumps(doc))


def _route(hops):
    """hops: list of (vehicle_id, distance, bandwidth)."""
    return Route(
        0,
        hops[-1][0],
        tuple(Hop(vid, (1, 1), d, bw) for vid, d, bw in hops),
    )


def test_route_stats_mean_and_ratio():
    r = _route([(1, 100.0, 4.0), (2, 100.0, 6.0), (3, 100.0, 8.0)])
    s = route_stats(r)
    assert s.total_distance == 300.0
    assert s.avg_bandwidth == 6.0
    assert abs(s.p_value - 300.0 / 18.0) <= 1e-3
    assert s.hops == 3


def test_route_stats_fast_relay(diamond):
    g = build_link_graph(diamond)
    s = route_from_sequence(g, (1, 3, 4)).stats
    assert abs(s.total_distance - 316.2278) <= 1e-4
    assert s.avg_bandwidth == 10.0
    assert abs(s.p_value - 15.8114) <= 1e-4


def test_route_stats_slow_relay(diamond):
    g = build_link_graph(diamond)
    s = route_from_sequence(g, (1, 2, 4)).stats
    assert s.total_distance == 300.0
    assert s.avg_bandwidth == 6.0
    assert s.p_value == 25.0


def test_route_stats_rejects_zero_hops():
    with pytest.raises(ValueError):
        route_stats(Route(1, 1, ()))


def test_subnormal_p_value_is_accepted():
    # two vehicles 1 m apart with huge but finite bandwidths: the fleet's
    # bandwidth sum stays in range, so the scenario loads, and p = 1/8e307
    # falls below the smallest normal float. It is accepted, not rejected:
    # it is still exact, positive and ordered, and the oracle's cost agrees
    # with the search bit for bit
    radio = {"id": 1, "freq": 1, "bw": 8e307}
    doc = {"area": {"width": 10, "height": 10}, "comm_range": 5,
           "vehicles": [{"id": vid, "x": x, "y": 0, "radios": [radio]} for vid, x in ((1, 0), (2, 1))]}
    s = load_scenario(json.dumps(doc))
    g = build_link_graph(s)
    optimum = best_routes_from(g, 1)[2][Metric.BANDWIDTH]
    for metric in (Metric.DISTANCE, Metric.BANDWIDTH):
        r = astar(s, g, 1, 2, metric)
        assert r.vehicle_sequence == (1, 2)
        assert r.stats.p_value == 1.25e-308
        assert 0 < r.stats.p_value < sys.float_info.min
        assert r.stats.p_value == optimum.cost
    assert optimum.vehicle_sequence == (1, 2)


def test_distance_heuristic_admissible(diamond):
    # the straight line to the goal never exceeds any feasible path's length
    g = build_link_graph(diamond)
    for seq in [(1, 2, 4), (1, 3, 4), (1, 2, 3, 4), (1, 3, 2, 4)]:
        total = route_from_sequence(g, seq).stats.total_distance
        assert math.dist(diamond.vehicle(1).position, diamond.vehicle(4).position) <= total
