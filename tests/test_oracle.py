from itertools import permutations

import pytest

from freqroute import (
    GenSpec,
    Metric,
    Optimum,
    PathSet,
    Scenario,
    astar,
    best_route,
    best_routes_from,
    build_link_graph,
    enumerate_paths,
    generate_scenario,
    route_from_sequence,
)
from conftest import assert_route_feasible, make_vehicle


def test_single_path_chain(bridge):
    g = build_link_graph(bridge)
    ps = enumerate_paths(g, 1, 2, 5)
    assert [r.vehicle_sequence for r in ps.routes] == [(1, 3, 2)]


def test_two_relay_paths_within_three_hops(diamond):
    g = build_link_graph(diamond)
    ps = enumerate_paths(g, 1, 4, 3)
    assert [r.vehicle_sequence for r in ps.routes] == [
        (1, 2, 3, 4),
        (1, 2, 4),
        (1, 3, 2, 4),
        (1, 3, 4),
    ]


def test_two_relay_paths_within_two_hops(diamond):
    g = build_link_graph(diamond)
    ps = enumerate_paths(g, 1, 4, 2)
    assert [r.vehicle_sequence for r in ps.routes] == [(1, 2, 4), (1, 3, 4)]


def test_hop_cap_excludes_everything(diamond):
    g = build_link_graph(diamond)
    assert enumerate_paths(g, 1, 4, 1).routes == ()


def test_disconnected_pair_is_empty(bridge):
    s = Scenario(bridge.area, bridge.comm_range, bridge.vehicles[:2])
    g = build_link_graph(s)
    assert enumerate_paths(g, 1, 2, 5).routes == ()


def test_source_equals_dest_zero_hop(diamond):
    g = build_link_graph(diamond)
    ps = enumerate_paths(g, 2, 2, 3)
    assert len(ps.routes) == 1 and ps.routes[0].hops == ()


def test_bad_arguments(diamond):
    g = build_link_graph(diamond)
    with pytest.raises(ValueError):
        enumerate_paths(g, 1, 4, 0)
    with pytest.raises(ValueError, match="unknown vehicle id"):
        enumerate_paths(g, 1, 99, 3)


def test_complete_graph_path_count(k4):
    g = build_link_graph(k4)
    ps = enumerate_paths(g, 1, 4, 3)
    assert len(ps.routes) == 5


def test_enumerated_paths_are_feasible(diamond, k4):
    for s in (diamond, k4):
        g = build_link_graph(s)
        for r in enumerate_paths(g, 1, 4, 3).routes:
            assert_route_feasible(s, g, r)


def test_best_route_under_each_metric(diamond):
    g = build_link_graph(diamond)
    ps = enumerate_paths(g, 1, 4, 3)
    assert best_route(ps, Metric.DISTANCE).vehicle_sequence == (1, 2, 4)
    assert best_route(ps, Metric.BANDWIDTH).vehicle_sequence == (1, 3, 4)


def test_best_route_empty_set():
    ps = PathSet((), 1, 2, 3)
    assert best_route(ps, Metric.DISTANCE) is None


def test_best_distance_bounds_every_path(diamond, k4):
    for s in (diamond, k4):
        g = build_link_graph(s)
        ps = enumerate_paths(g, 1, 4, 3)
        best = best_route(ps, Metric.DISTANCE).stats.total_distance
        for r in ps.routes:
            assert best <= r.stats.total_distance


def test_best_route_tie_breaks_lexicographically():
    # mirror-image relays: both two-hop paths cost the same under both metrics
    from conftest import make_vehicle

    s = Scenario(
        (400.0, 400.0), 150.0,
        (
            make_vehicle(1, 0, 200, [(1, 1, 5.0)]),
            make_vehicle(2, 100, 100, [(1, 1, 5.0)]),
            make_vehicle(3, 100, 300, [(1, 1, 5.0)]),
            make_vehicle(4, 200, 200, [(1, 1, 5.0)]),
        ),
    )
    g = build_link_graph(s)
    ps = enumerate_paths(g, 1, 4, 3)
    for metric in (Metric.DISTANCE, Metric.BANDWIDTH):
        assert best_route(ps, metric).vehicle_sequence == (1, 2, 4)


def naive_simple_paths(graph, source, dest, max_hops):
    """Independent enumeration: try every permutation of intermediate vertices."""
    others = [v for v in graph.vehicle_ids if v not in (source, dest)]
    found = []
    for k in range(0, max_hops):
        for mid in permutations(others, k):
            seq = (source, *mid, dest)
            if all(graph.link(a, b) is not None for a, b in zip(seq, seq[1:])):
                found.append(seq)
    return sorted(found)


def test_matches_independent_enumeration():
    for seed in range(10):
        s = generate_scenario(
            GenSpec(
                seed=seed,
                vehicle_count=6,
                area=(400.0, 400.0),
                comm_range=180.0,
                radios_per_vehicle=1,
                frequency_pool=(1, 2),
                bandwidth_range=(2.0, 10.0),
            )
        )
        g = build_link_graph(s)
        for max_hops in (2, 5):
            ps = enumerate_paths(g, 1, 6, max_hops)
            got = [r.vehicle_sequence for r in ps.routes]
            assert got == naive_simple_paths(g, 1, 6, max_hops)
            assert got == sorted(got)  # lexicographic output order


def test_best_routes_from_agrees_with_per_pair_queries():
    for seed in (3, 8):
        s = generate_scenario(
            GenSpec(
                seed=seed,
                vehicle_count=7,
                area=(400.0, 400.0),
                comm_range=200.0,
                radios_per_vehicle=1,
                frequency_pool=(1,),
                bandwidth_range=(2.0, 10.0),
            )
        )
        g = build_link_graph(s)
        max_hops = len(s.vehicles) - 1
        sweep = best_routes_from(g, 1, max_hops)
        reached = set()
        for dest in g.vehicle_ids:
            if dest == 1:
                continue
            ps = enumerate_paths(g, 1, dest, max_hops)
            if not ps.routes:
                assert dest not in sweep
                continue
            reached.add(dest)
            for metric in tuple(Metric):
                expected = best_route(ps, metric)
                assert sweep[dest][metric] == Optimum(expected.stats.cost(metric), expected.vehicle_sequence)
        assert set(sweep) == reached


def test_search_route_is_always_enumerated(diamond):
    # whatever the search returns is one of the exhaustively enumerated paths
    g = build_link_graph(diamond)
    ps = enumerate_paths(g, 1, 4, 3)
    sequences = {r.vehicle_sequence for r in ps.routes}
    for metric in (Metric.DISTANCE, Metric.BANDWIDTH):
        assert astar(diamond, g, 1, 4, metric).vehicle_sequence in sequences


def oracle_scenarios():
    """Seeded fleets of 1-10 vehicles, each with 1-3 radios over 1-3 channels."""
    for n in range(1, 11):
        for radios in (1, 2, 3):
            channels = 1 + (n + radios) % 3
            yield generate_scenario(
                GenSpec(100 * n + radios, n, (400.0, 400.0), 180.0, radios,
                        tuple(range(1, channels + 1)), (2.0, 10.0))
            )


def test_best_routes_from_matches_naive_enumeration():
    # at every hop cap, per destination and metric: the sequence is the
    # (cost, sequence) minimum over the independently enumerated paths, and
    # the cost equals the materialized route's stats bit for bit. The
    # permutations grow fast, so 9-10 vehicle fleets check one source and
    # two destinations
    for s in oracle_scenarios():
        g = build_link_graph(s)
        n = len(s.vehicles)
        ids = sorted(g.vehicle_ids)
        for src in ids if n <= 8 else ids[:1]:
            others = [d for d in ids if d != src]
            dests = others if n <= 8 else others[-2:]
            paths = {
                d: [(seq, route_from_sequence(g, seq).stats) for seq in naive_simple_paths(g, src, d, n - 1)]
                for d in dests
            }
            for cap in range(1, max(n, 2)):
                optima = best_routes_from(g, src, cap)
                assert src not in optima
                for d in dests:
                    within = [(seq, stats) for seq, stats in paths[d] if len(seq) - 1 <= cap]
                    assert (d in optima) == bool(within)
                    for metric in tuple(Metric) if within else ():
                        seq, stats = min(within, key=lambda p: (p[1].cost(metric), p[0]))
                        assert optima[d][metric] == Optimum(stats.cost(metric), seq)


def test_best_routes_from_tie_goes_to_smaller_sequence():
    # a square with four equal sides and no diagonal links: both routes
    # between opposite corners cost exactly the same under both metrics. The
    # walk meets the smaller sequence first, and a later path replaces a
    # kept optimum only when strictly cheaper
    s = Scenario(
        (100.0, 100.0), 100.0,
        tuple(make_vehicle(vid, x, y, [(1, 1, 5.0)])
              for vid, x, y in ((1, 0, 0), (2, 100, 0), (3, 0, 100), (4, 100, 100))),
    )
    g = build_link_graph(s)
    assert g.link(1, 4) is None and g.link(2, 3) is None
    assert route_from_sequence(g, (1, 2, 4)).stats == route_from_sequence(g, (1, 3, 4)).stats
    for src, dst, smaller in ((1, 4, (1, 2, 4)), (4, 1, (4, 2, 1)), (2, 3, (2, 1, 3)), (3, 2, (3, 1, 2))):
        stats = route_from_sequence(g, smaller).stats
        for metric in tuple(Metric):
            assert best_routes_from(g, src, 3)[dst][metric] == Optimum(stats.cost(metric), smaller)
