import pytest
from hypothesis import given, strategies as st

from freqroute import (
    GenSpec,
    Metric,
    Optimum,
    Scenario,
    astar,
    best_routes_from,
    build_link_graph,
    generate_scenario,
)
from conftest import (
    assert_route_feasible,
    find_link,
    make_vehicle,
    naive_simple_paths,
    route_from_sequence,
)


def naive_optimum(graph, sequences, metric):
    """The (cost, sequence) minimum over `sequences`, each costed by its materialized route."""
    return Optimum(*min((route_from_sequence(graph, seq).stats.cost(metric), seq) for seq in sequences))


def test_single_path_chain(bridge):
    # 1 and 2 share no channel, so the only way between them is the bridge 3
    g = build_link_graph(bridge)
    assert naive_simple_paths(g, 1, 2, 5) == [(1, 3, 2)]
    stats = route_from_sequence(g, (1, 3, 2)).stats
    optima = best_routes_from(g, 1)
    assert set(optima) == {2, 3}
    for metric in tuple(Metric):
        assert optima[2][metric] == Optimum(stats.cost(metric), (1, 3, 2))


def test_two_relay_paths_within_three_hops(diamond):
    g = build_link_graph(diamond)
    paths = naive_simple_paths(g, 1, 4, 3)
    assert paths == [(1, 2, 3, 4), (1, 2, 4), (1, 3, 2, 4), (1, 3, 4)]
    optima = best_routes_from(g, 1)
    for metric in tuple(Metric):
        assert optima[4][metric] == naive_optimum(g, paths, metric)


def test_two_relay_paths_within_two_hops(diamond):
    # the three-hop detours through both relays are never optimal here, so
    # the full walk keeps, for every destination, the two-hop minimum
    g = build_link_graph(diamond)
    assert naive_simple_paths(g, 1, 4, 2) == [(1, 2, 4), (1, 3, 4)]
    optima = best_routes_from(g, 1)
    assert set(optima) == {2, 3, 4}
    for dest in optima:
        paths = naive_simple_paths(g, 1, dest, 2)
        for metric in tuple(Metric):
            assert optima[dest][metric] == naive_optimum(g, paths, metric)


def test_disconnected_pair_is_empty(bridge):
    # without the bridging vehicle 3 nothing links 1 and 2
    s = Scenario(bridge.area, bridge.comm_range, bridge.vehicles[:2])
    g = build_link_graph(s)
    assert naive_simple_paths(g, 1, 2, 5) == []
    assert best_routes_from(g, 1) == {}
    assert best_routes_from(g, 2) == {}


def test_source_is_never_a_destination(diamond, k4):
    # only simple paths are walked, so none comes back to its source,
    # even where the graph has cycles through it
    for s in (diamond, k4):
        g = build_link_graph(s)
        for src in g.vehicle_ids:
            assert set(best_routes_from(g, src)) == set(g.vehicle_ids) - {src}


def test_bad_arguments(diamond):
    g = build_link_graph(diamond)
    with pytest.raises(ValueError, match="unknown vehicle id: 99"):
        best_routes_from(g, 99)


def test_complete_graph_path_count(k4):
    g = build_link_graph(k4)
    paths = naive_simple_paths(g, 1, 4, 3)
    assert len(paths) == 5
    optima = best_routes_from(g, 1)
    for metric in tuple(Metric):
        assert optima[4][metric] == naive_optimum(g, paths, metric)


def test_enumerated_paths_are_feasible(diamond, k4):
    # every kept optimum is a real route whose stats give back its cost bit
    # for bit, and so is every path the reference enumerates
    for s in (diamond, k4):
        g = build_link_graph(s)
        for src in g.vehicle_ids:
            for dest, by_metric in best_routes_from(g, src).items():
                for metric, optimum in by_metric.items():
                    route = route_from_sequence(g, optimum.vehicle_sequence)
                    assert route.destination == dest
                    assert_route_feasible(s, g, route)
                    assert route.stats.cost(metric) == optimum.cost
        for seq in naive_simple_paths(g, 1, 4, 3):
            assert_route_feasible(s, g, route_from_sequence(g, seq))


def test_best_route_under_each_metric(diamond):
    g = build_link_graph(diamond)
    optima = best_routes_from(g, 1)[4]
    assert optima[Metric.DISTANCE] == Optimum(300.0, (1, 2, 4))
    fast = route_from_sequence(g, (1, 3, 4)).stats
    assert optima[Metric.BANDWIDTH] == Optimum(fast.p_value, (1, 3, 4))


def test_best_distance_bounds_every_path(diamond, k4):
    for s in (diamond, k4):
        g = build_link_graph(s)
        for src in g.vehicle_ids:
            optima = best_routes_from(g, src)
            for dest in optima:
                for seq in naive_simple_paths(g, src, dest, 3):
                    stats = route_from_sequence(g, seq).stats
                    for metric in tuple(Metric):
                        assert optima[dest][metric].cost <= stats.cost(metric)


def test_best_route_tie_breaks_lexicographically():
    # mirror-image relays: both two-hop paths cost the same under both metrics
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
    for src, dst, smaller in ((1, 4, (1, 2, 4)), (4, 1, (4, 2, 1))):
        for metric in (Metric.DISTANCE, Metric.BANDWIDTH):
            assert best_routes_from(g, src)[dst][metric].vehicle_sequence == smaller


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
        optima = best_routes_from(g, 1)
        for dest in range(2, 7):
            paths = naive_simple_paths(g, 1, dest, len(s.vehicles) - 1)
            assert (dest in optima) == bool(paths)
            for metric in tuple(Metric) if paths else ():
                assert optima[dest][metric] == naive_optimum(g, paths, metric)


def test_search_route_is_always_enumerated(diamond):
    # whatever the search returns is one of the exhaustively enumerated paths
    g = build_link_graph(diamond)
    sequences = set(naive_simple_paths(g, 1, 4, 3))
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
    # per destination and metric: the sequence is the (cost, sequence)
    # minimum over the independently enumerated paths, and the cost equals
    # the materialized route's stats bit for bit. The permutations grow
    # fast, so 9-10 vehicle fleets check one source and two destinations
    for s in oracle_scenarios():
        g = build_link_graph(s)
        n = len(s.vehicles)
        ids = sorted(g.vehicle_ids)
        for src in ids if n <= 8 else ids[:1]:
            others = [d for d in ids if d != src]
            dests = others if n <= 8 else others[-2:]
            optima = best_routes_from(g, src)
            assert src not in optima
            for d in dests:
                sequences = naive_simple_paths(g, src, d, n - 1)
                paths = [(seq, route_from_sequence(g, seq).stats) for seq in sequences]
                assert (d in optima) == bool(paths)
                for metric in tuple(Metric) if paths else ():
                    seq, stats = min(paths, key=lambda p: (p[1].cost(metric), p[0]))
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
    assert find_link(g, 1, 4) is None and find_link(g, 2, 3) is None
    assert route_from_sequence(g, (1, 2, 4)).stats == route_from_sequence(g, (1, 3, 4)).stats
    for src, dst, smaller in ((1, 4, (1, 2, 4)), (4, 1, (4, 2, 1)), (2, 3, (2, 1, 3)), (3, 2, (3, 1, 2))):
        stats = route_from_sequence(g, smaller).stats
        for metric in tuple(Metric):
            assert best_routes_from(g, src)[dst][metric] == Optimum(stats.cost(metric), smaller)


def bandwidth_sum(route):
    return sum(hop.bandwidth for hop in route.hops)


def distance_and_ratio_optima(graph, optima):
    """The routes of the exact distance optimum and the exact ratio optimum."""
    return tuple(
        route_from_sequence(graph, optima[m].vehicle_sequence) for m in (Metric.DISTANCE, Metric.BANDWIDTH)
    )


@given(seed=st.integers(0, 2**32), count=st.integers(2, 10), radios=st.integers(1, 2))
def test_ratio_optimum_never_raises_p_or_lowers_bandwidth_sum(seed, count, radios):
    # the distance optimum is one of the ratio's candidates, so p cannot rise;
    # it is also shortest, so D(ratio) >= D(distance) and the bandwidth sum
    # D / p cannot fall. The average bandwidth carries no such guarantee.
    s = generate_scenario(GenSpec(seed, count, (500.0, 500.0), 200.0, radios, (1, 2), (2.0, 10.0)))
    g = build_link_graph(s)
    for source in g.vehicle_ids:
        for optima in best_routes_from(g, source).values():
            by_distance, by_ratio = distance_and_ratio_optima(g, optima)
            assert by_ratio.stats.p_value <= by_distance.stats.p_value
            assert bandwidth_sum(by_ratio) >= bandwidth_sum(by_distance)


def test_ratio_optimum_can_lower_the_average_bandwidth():
    # validate's default fleet at seed 3000: the ratio optimum adds a slow hop
    s = generate_scenario(GenSpec(3000, 8, (500.0, 500.0), 200.0, 1, (1,), (2.0, 10.0)))
    g = build_link_graph(s)
    by_distance, by_ratio = distance_and_ratio_optima(g, best_routes_from(g, 3)[6])
    assert by_distance.vehicle_sequence == (3, 6)
    assert by_ratio.vehicle_sequence == (3, 2, 6)
    assert by_distance.stats.avg_bandwidth == 5.1
    assert by_ratio.stats.avg_bandwidth == 4.75
    assert bandwidth_sum(by_ratio) == 9.5 > bandwidth_sum(by_distance)
    assert by_ratio.stats.p_value < by_distance.stats.p_value
