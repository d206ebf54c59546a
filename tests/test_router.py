import heapq
import math
import random
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from freqroute import (
    GenSpec,
    Hop,
    Metric,
    Route,
    Scenario,
    astar,
    build_link_graph,
    generate_scenario,
)
from conftest import (
    assert_route_feasible,
    find_link,
    find_radio,
    fleet_3000,
    make_vehicle,
    route_from_sequence,
    select_radio_pair,
)

BOTH = (Metric.DISTANCE, Metric.BANDWIDTH)


def test_bridge_route_under_both_metrics(bridge):
    g = build_link_graph(bridge)
    for metric in BOTH:
        r = astar(bridge, g, 1, 2, metric)
        assert r.vehicle_sequence == (1, 3, 2)
        assert r.hop_count == 2
        assert [h.radio_pair for h in r.hops] == [(2, 6), (5, 3)]
        assert_route_feasible(bridge, g, r)


def test_shortest_route_takes_straight_line(diamond):
    g = build_link_graph(diamond)
    r = astar(diamond, g, 1, 4, Metric.DISTANCE)
    assert r.vehicle_sequence == (1, 2, 4)
    assert abs(r.stats.total_distance - 300.0) <= 1e-9


def test_ratio_route_takes_fast_relay(diamond):
    g = build_link_graph(diamond)
    r = astar(diamond, g, 1, 4, Metric.BANDWIDTH)
    assert r.vehicle_sequence == (1, 3, 4)
    assert abs(r.stats.p_value - 15.8114) <= 1e-4
    assert r.stats.avg_bandwidth == 10.0


def test_no_route_when_bridge_removed(bridge):
    s = Scenario(bridge.area, bridge.comm_range, bridge.vehicles[:2])
    g = build_link_graph(s)
    for metric in BOTH:
        assert astar(s, g, 1, 2, metric) is None


def test_source_equals_dest(diamond):
    g = build_link_graph(diamond)
    r = astar(diamond, g, 3, 3, Metric.DISTANCE)
    assert r.hops == ()
    assert r.hop_count == 0
    assert r.vehicle_sequence == (3,)
    with pytest.raises(ValueError):
        r.stats


def test_unknown_ids_rejected(diamond):
    g = build_link_graph(diamond)
    with pytest.raises(ValueError, match="unknown vehicle id"):
        astar(diamond, g, 1, 99, Metric.DISTANCE)
    with pytest.raises(ValueError, match="unknown vehicle id"):
        astar(diamond, g, 99, 1, Metric.DISTANCE)


def test_determinism(diamond):
    g = build_link_graph(diamond)
    for metric in BOTH:
        assert astar(diamond, g, 1, 4, metric) == astar(diamond, g, 1, 4, metric)


def test_frontier_update_reassigns_back_pointer(diamond):
    # 2 first enters the frontier from 1 directly (f 75); the path through 3
    # later rediscovers it with a smaller ratio, so the returned route must
    # carry the reassigned parent
    g = build_link_graph(diamond)
    r = astar(diamond, g, 1, 2, Metric.BANDWIDTH)
    assert r.vehicle_sequence == (1, 3, 2)
    assert abs(r.stats.p_value - 17.3428) <= 1e-4


def test_closed_vehicles_stay_closed(diamond):
    # from the slow vehicle the destination pops before the fast detour is
    # explored; the true ratio optimum (2,3,1) stays unexplored by design
    g = build_link_graph(diamond)
    r = astar(diamond, g, 2, 1, Metric.BANDWIDTH)
    assert r.vehicle_sequence == (2, 1)
    assert r.stats.p_value == 15.0
    better = route_from_sequence(g, (2, 3, 1))
    assert better.stats.p_value < r.stats.p_value


def test_equal_f_pops_lower_vehicle_id():
    # two mirror-image relays; every cost ties, so the lower id must win
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
    for metric in BOTH:
        assert astar(s, g, 1, 4, metric).vehicle_sequence == (1, 2, 4)


def test_select_radio_pair_prefers_fast_receiver():
    s = Scenario(
        (100.0, 100.0), 50.0,
        (
            make_vehicle(1, 0, 0, [(1, 1, 4.0)]),
            make_vehicle(2, 10, 0, [(1, 1, 3.0), (2, 1, 9.0)]),
        ),
    )
    g = build_link_graph(s)
    ahead = find_link(g, 1, 2)
    assert ahead.radio_pair == (1, 2) and ahead.bandwidth == 9.0
    # and in the reverse direction the single receiver is the only choice
    back = find_link(g, 2, 1)
    assert back.radio_pair[1] == 1 and back.bandwidth == 4.0
    # a route's hop uses the pair its link carries
    hop, = astar(s, g, 1, 2, Metric.DISTANCE).hops
    assert (hop.radio_pair, hop.bandwidth) == ((1, 2), 9.0)


def test_select_radio_pair_tie_breaks_on_low_ids():
    # equal bandwidths on both sides: the lowest ids win, whichever order
    # the radios are listed in
    for order in (slice(None), slice(None, None, -1)):
        s = Scenario(
            (100.0, 100.0), 50.0,
            (
                make_vehicle(1, 0, 0, [(1, 1, 4.0), (2, 1, 4.0)][order]),
                make_vehicle(2, 10, 0, [(3, 1, 6.0), (4, 1, 6.0)][order]),
            ),
        )
        g = build_link_graph(s)
        assert find_link(g, 1, 2).radio_pair == (1, 3) and find_link(g, 1, 2).bandwidth == 6.0
        assert find_link(g, 2, 1).radio_pair == (3, 1) and find_link(g, 2, 1).bandwidth == 4.0


def test_expand_children(diamond):
    # from 1 the search reaches 2 and 3, each link entered from 1; the fast
    # relay's ordering value (158.11 + 158.11) / 10 = 31.62 is below the slow
    # relay's (150 + 150) / 2 = 150, so the route goes through 3
    g = build_link_graph(diamond)
    assert [(l.from_vehicle, l.to_vehicle) for l in g.neighbors(1)] == [(1, 2), (1, 3)]
    r = astar(diamond, g, 1, 4, Metric.BANDWIDTH)
    leg = 158.11388300841898
    assert r.hops == (Hop(3, (1, 1), leg, 10.0), Hop(4, (1, 1), leg, 10.0))


def test_expand_single_neighbor(bridge):
    g = build_link_graph(bridge)
    assert [l.to_vehicle for l in g.neighbors(1)] == [3]
    for metric in BOTH:
        assert astar(bridge, g, 1, 3, metric).hops == (Hop(3, (2, 6), 150.0, 4.0),)


def test_expand_isolated_vertex():
    s = Scenario(
        (500.0, 500.0), 50.0,
        (make_vehicle(1, 0, 0, [(1, 1, 1.0)]), make_vehicle(2, 400, 400, [(1, 1, 1.0)])),
    )
    g = build_link_graph(s)
    assert g.neighbors(1) == ()
    for metric in BOTH:
        assert astar(s, g, 1, 2, metric) is None


def test_routes_on_random_scenarios_are_feasible():
    for seed in range(15):
        s = generate_scenario(
            GenSpec(
                seed=seed,
                vehicle_count=12,
                area=(600.0, 600.0),
                comm_range=220.0,
                radios_per_vehicle=2,
                frequency_pool=(1, 2, 3),
                bandwidth_range=(2.0, 10.0),
            )
        )
        g = build_link_graph(s)
        found = {}
        for metric in BOTH:
            r = astar(s, g, 1, 12, metric)
            found[metric] = r is not None
            if r is not None:
                assert_route_feasible(s, g, r)
        # feasibility does not depend on the metric
        assert found[Metric.DISTANCE] == found[Metric.BANDWIDTH]


# --- differential check against the search that chose radios per expansion ---


@dataclass(frozen=True)
class PathAccumulator:
    dist_sum: float = 0.0
    bw_sum: float = 0.0
    hop_count: int = 0

    def extend(self, link_distance, receiving_bw):
        return PathAccumulator(
            self.dist_sum + link_distance, self.bw_sum + receiving_bw, self.hop_count + 1
        )


def f_value(metric, acc, current, goal):
    remaining = math.dist(current, goal)
    if metric is Metric.DISTANCE:
        return acc.dist_sum + remaining
    if acc.hop_count == 0:
        return 0.0
    return (acc.dist_sum + remaining) / acc.bw_sum


@dataclass(frozen=True)
class SearchNode:
    vehicle_id: int
    acc: PathAccumulator
    f: float
    parent: int | None = None
    radio_pair: tuple[int, int] | None = None


def expand(node, scenario, graph, dest, metric):
    goal = scenario.vehicle(dest).position
    children = []
    for link in graph.neighbors(node.vehicle_id):
        pair, bw = select_radio_pair(scenario, link)
        acc = node.acc.extend(link.distance, bw)
        pos = scenario.vehicle(link.to_vehicle).position
        f = f_value(metric, acc, pos, goal)
        children.append(SearchNode(link.to_vehicle, acc, f, node.vehicle_id, pair))
    return children


def reference_astar(scenario, graph, source, dest, metric):
    """The search as it ran before links carried their radio choice.

    Per expansion it picks each link's radio pair from the two vehicles'
    shared-channel pairs (select_radio_pair), extends an accumulator object,
    and computes the
    ordering value through the metric's formula; hops are rebuilt from the
    graph and the receiving radio.
    """
    if source == dest:
        return Route(source, dest, ())
    goal = scenario.vehicle(dest).position
    start_acc = PathAccumulator()
    start = SearchNode(
        source, start_acc, f_value(metric, start_acc, scenario.vehicle(source).position, goal)
    )
    best = {source: start}
    closed = set()
    frontier = [(start.f, source)]
    while frontier:
        f, vid = heapq.heappop(frontier)
        if vid in closed:
            continue
        node = best[vid]
        if f != node.f:
            continue
        closed.add(vid)
        if vid == dest:
            hops = []
            while node.parent is not None:
                link = find_link(graph, node.parent, node.vehicle_id)
                tx, rx = node.radio_pair
                bw = find_radio(scenario.vehicle(node.vehicle_id), rx).bandwidth
                hops.append(Hop(node.vehicle_id, (tx, rx), link.distance, bw))
                node = best[node.parent]
            return Route(source, dest, tuple(reversed(hops)))
        for child in expand(node, scenario, graph, dest, metric):
            if child.vehicle_id in closed:
                continue
            known = best.get(child.vehicle_id)
            if known is None or child.f < known.f:
                best[child.vehicle_id] = child
                heapq.heappush(frontier, (child.f, child.vehicle_id))
    return None


@st.composite
def tie_fleets(draw):
    """Fleets built for ties: positions on a coarse lattice, few bandwidth values.

    Lattice spacing 50 m and ranges of one to three spacings make many equal
    link lengths and equal ordering values; 1-3 radios over 1-3 channels with
    radio ids out of ascending order make the radio choice tie on bandwidth.
    """
    side = draw(st.integers(1, 8))
    points = draw(
        st.lists(st.tuples(st.integers(0, side), st.integers(0, side)), min_size=2, max_size=30)
    )
    ids = draw(st.permutations(range(1, len(points) + 1)))
    reach = draw(st.sampled_from([50.0, 75.0, 100.0, 150.0]))
    channels = draw(st.integers(1, 3))
    rates = draw(st.sampled_from([(5.0,), (2.0, 8.0), (2.0, 4.0, 8.0)]))
    plan = st.lists(
        st.tuples(st.integers(1, channels), st.sampled_from(rates)), min_size=1, max_size=3
    )
    radio_ids = st.permutations(range(1, 4))
    vehicles = [
        make_vehicle(
            vid, 50 * x, 50 * y,
            [(rid, f, bw) for rid, (f, bw) in zip(draw(radio_ids), draw(plan))],
        )
        for vid, (x, y) in zip(ids, points)
    ]
    return Scenario((50.0 * side, 50.0 * side), reach, tuple(vehicles))


@given(scenario=tie_fleets(), query_seed=st.integers(0, 2**16))
@example(scenario=fleet_3000(1), query_seed=1)
@example(scenario=fleet_3000(4242), query_seed=2)
@example(scenario=fleet_3000(7), query_seed=3)
def test_search_matches_reference_search(scenario, query_seed):
    # Route equality covers the vehicle sequence and, hop by hop, the radio
    # pair, the distance and the bandwidth, bit for bit; None must match None
    g = build_link_graph(scenario)
    rng = random.Random(query_seed)
    ids = sorted(g.vehicle_ids)
    for _ in range(24):
        source, dest = rng.choice(ids), rng.choice(ids)
        for metric in BOTH:
            assert astar(scenario, g, source, dest, metric) == reference_astar(
                scenario, g, source, dest, metric
            )


# --- distance exactness beyond the oracle's vehicle cap -----------------------


def dijkstra_distances(graph, source):
    """Shortest distance from `source` to every vehicle it reaches, by plain Dijkstra.

    This is A* with a zero estimate (Hart, Nilsson & Raphael 1968), a reference
    that needs no positions and enumerates nothing, so it scales to any fleet.
    """
    dist = {source: 0.0}
    done = set()
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for link in graph.neighbors(u):
            nd = d + link.distance
            if nd < dist.get(link.to_vehicle, math.inf):
                dist[link.to_vehicle] = nd
                heapq.heappush(heap, (nd, link.to_vehicle))
    return dist


@st.composite
def large_fleets(draw):
    """Generated fleets of 300-3000 vehicles at the density of fleet_3000 (mean degree ~12)."""
    n = draw(st.integers(300, 3000))
    side = 6000.0 * math.sqrt(n / 3000)
    radios, channels = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return generate_scenario(
        GenSpec(draw(st.integers(0, 2**16)), n, (side, side), 250.0, radios,
                tuple(range(1, channels + 1)), (2.0, 10.0))
    )


@settings(max_examples=4)
@given(scenario=large_fleets(), query_seed=st.integers(0, 2**16))
@example(scenario=fleet_3000(1), query_seed=1)
@example(scenario=fleet_3000(5, radios=1, channels=2), query_seed=2)
def test_distance_search_matches_dijkstra_on_large_fleets(scenario, query_seed):
    # the straight-line estimate never overshoots, so the distance search is
    # exact at every fleet size: its length equals Dijkstra's within 1e-9 and
    # it finds a route exactly when Dijkstra reaches the destination
    g = build_link_graph(scenario)
    rng = random.Random(query_seed)
    ids = sorted(g.vehicle_ids)
    for source in rng.sample(ids, 2):
        dist = dijkstra_distances(g, source)
        for dest in rng.sample(ids, 8) + rng.sample(sorted(dist), min(4, len(dist))):
            r = astar(scenario, g, source, dest, Metric.DISTANCE)
            assert (r is not None) == (dest in dist)
            if r is not None and r.hops:
                assert abs(r.stats.total_distance - dist[dest]) <= 1e-9


def test_dijkstra_reference_matches_networkx():
    # a second, independent reference for the one above
    nx = pytest.importorskip("networkx")
    scenario = fleet_3000(2)
    g = build_link_graph(scenario)
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vehicle_ids)
    nxg.add_weighted_edges_from(
        (l.from_vehicle, l.to_vehicle, l.distance) for vid in g.vehicle_ids for l in g.neighbors(vid)
    )
    rng = random.Random(2)
    for source in rng.sample(sorted(g.vehicle_ids), 2):
        expected = nx.single_source_dijkstra_path_length(nxg, source)
        dist = dijkstra_distances(g, source)
        assert dist.keys() == expected.keys()
        assert all(abs(dist[v] - expected[v]) <= 1e-9 for v in dist)
        for dest in rng.sample(sorted(dist), 6):
            r = astar(scenario, g, source, dest, Metric.DISTANCE)
            assert abs((r.stats.total_distance if r.hops else 0.0) - expected[dest]) <= 1e-9
