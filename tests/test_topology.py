import gc
import math
import random
import sys
import threading
import weakref

import pytest
from hypothesis import example, given, strategies as st

from freqroute import (
    Scenario,
    build_link_graph,
    compare_routes,
    generate_scenario,
    lowest_connected_pair,
    validate_scenario,
)
from freqroute.model import GenSpec
from freqroute.topology import Link, LinkGraph
from conftest import (
    components_lowest_pair,
    find_link,
    find_radio,
    fleet_3000,
    fleet_at_sweep_density,
    make_vehicle,
    reachable,
    select_radio_pair,
    shared_frequency_pairs,
)


def test_shared_pairs_bridge(bridge):
    a, c = bridge.vehicle(1), bridge.vehicle(3)
    assert shared_frequency_pairs(a, c) == [(2, 6)]
    assert shared_frequency_pairs(c, bridge.vehicle(2)) == [(5, 3)]


def test_shared_pairs_none(bridge):
    assert shared_frequency_pairs(bridge.vehicle(1), bridge.vehicle(2)) == []


def test_shared_pairs_identical_plans():
    a = make_vehicle(1, 0, 0, [(1, 1, 4.0), (2, 2, 4.0)])
    b = make_vehicle(2, 5, 0, [(7, 1, 4.0), (8, 2, 4.0)])
    assert shared_frequency_pairs(a, b) == [(1, 7), (2, 8)]


def test_shared_pairs_a_major_order():
    a = make_vehicle(1, 0, 0, [(1, 1, 4.0), (2, 1, 4.0)])
    b = make_vehicle(2, 5, 0, [(5, 1, 4.0), (6, 1, 4.0)])
    assert shared_frequency_pairs(a, b) == [(1, 5), (1, 6), (2, 5), (2, 6)]


def test_bridge_graph_links(bridge):
    g = build_link_graph(bridge)
    assert g.link_count() == 2
    assert find_link(g, 1, 3) is not None
    assert find_link(g, 3, 2) is not None
    assert find_link(g, 1, 2) is None
    assert find_link(g, 1, 3).distance == 150.0


def test_in_range_without_shared_channel_is_no_link(bridge):
    vehicles = list(bridge.vehicles)
    v2 = vehicles[1]
    vehicles[1] = make_vehicle(2, 160, 0, [(r.radio_id, r.frequency, r.bandwidth) for r in v2.radios])
    s = Scenario(bridge.area, bridge.comm_range, tuple(vehicles))
    g = build_link_graph(s)
    assert find_link(g, 1, 2) is None  # 160 m is in range, but no channel matches


def test_single_vehicle_graph():
    s = Scenario((100.0, 100.0), 50.0, (make_vehicle(1, 0, 0, [(1, 1, 1.0)]),))
    g = build_link_graph(s)
    assert g.vehicle_ids == (1,)
    assert g.neighbors(1) == ()
    assert g.link_count() == 0


def test_distance_equal_to_range_is_connected():
    s = Scenario(
        (300.0, 300.0), 200.0,
        (make_vehicle(1, 0, 0, [(1, 1, 1.0)]), make_vehicle(2, 200, 0, [(1, 1, 1.0)])),
    )
    g = build_link_graph(s)
    assert find_link(g, 1, 2) is not None
    assert find_link(g, 1, 2).distance == 200.0


def test_no_self_links(diamond):
    g = build_link_graph(diamond)
    for vid in g.vehicle_ids:
        assert all(l.to_vehicle != vid for l in g.neighbors(vid))


def test_neighbor_lists_ascend(diamond):
    g = build_link_graph(diamond)
    for vid in g.vehicle_ids:
        ids = [l.to_vehicle for l in g.neighbors(vid)]
        assert ids == sorted(ids)


def test_mirrored_links(diamond):
    g = build_link_graph(diamond)
    for vid in g.vehicle_ids:
        for link in g.neighbors(vid):
            back = find_link(g, link.to_vehicle, vid)
            assert back is not None
            assert back.distance == link.distance
            for hop in (link, back):
                assert (hop.radio_pair, hop.bandwidth) == select_radio_pair(diamond, hop)
                assert hop.radio_pair in shared_frequency_pairs(
                    diamond.vehicle(hop.from_vehicle), diamond.vehicle(hop.to_vehicle)
                )


def test_every_link_pair_matches_frequency(bridge):
    g = build_link_graph(bridge)
    for vid in g.vehicle_ids:
        for link in g.neighbors(vid):
            tx, rx = link.radio_pair
            tx_radio = find_radio(bridge.vehicle(vid), tx)
            rx_radio = find_radio(bridge.vehicle(link.to_vehicle), rx)
            assert tx_radio.frequency == rx_radio.frequency
            assert link.bandwidth == rx_radio.bandwidth
            assert (link.radio_pair, link.bandwidth) == select_radio_pair(bridge, link)


def test_every_neighbor_is_a_link(diamond, bridge):
    # a Link compares equal to a plain tuple, so assert_matches_all_pairs
    # cannot see whether each direction was built as a Link of Link's arity
    for scenario in (diamond, bridge, fleet_3000(1), fleet_3000(4, radios=4, channels=8)):
        g = build_link_graph(scenario)
        for vid in g.vehicle_ids:
            for link in g.neighbors(vid):
                assert type(link) is Link
                assert len(link) == len(Link._fields)


def test_reachability(bridge):
    g = build_link_graph(bridge)
    assert reachable(g, 1) == {1, 2, 3}
    s = Scenario(bridge.area, bridge.comm_range, bridge.vehicles[:2])
    g2 = build_link_graph(s)
    assert reachable(g2, 1) == {1}
    assert reachable(g2, 2) == {2}


def small_gen(seed, count=8, radios=1, pool=(1,), comm_range=200.0):
    return generate_scenario(
        GenSpec(
            seed=seed,
            vehicle_count=count,
            area=(500.0, 500.0),
            comm_range=comm_range,
            radios_per_vehicle=radios,
            frequency_pool=pool,
            bandwidth_range=(2.0, 10.0),
        )
    )


def test_brute_force_equivalence():
    # independent all-pairs recomputation of the adjacency definition
    for seed in range(12):
        s = small_gen(seed, count=6 + seed % 5, radios=1 + seed % 2, pool=(1, 2))
        g = build_link_graph(s)
        for a in s.vehicles:
            for b in s.vehicles:
                if a.vehicle_id == b.vehicle_id:
                    continue
                d = math.dist(a.position, b.position)
                pairs = [
                    (ra.radio_id, rb.radio_id)
                    for ra in a.radios
                    for rb in b.radios
                    if ra.frequency == rb.frequency
                ]
                link = find_link(g, a.vehicle_id, b.vehicle_id)
                if d <= s.comm_range and pairs:
                    assert link is not None
                    assert link.distance == d
                    assert link.radio_pair in pairs
                    assert (link.radio_pair, link.bandwidth) == select_radio_pair(s, link)
                else:
                    assert link is None


def all_pairs_link_graph(scenario):
    """The quadratic builder the grid replaced: every pair tested, in id order.

    Each direction's radio pair comes from the reference per-hop rule,
    select_radio_pair, which lists every shared-channel pair of the two
    vehicles.
    """
    order = sorted(scenario.vehicles, key=lambda v: v.vehicle_id)
    adjacency = {v.vehicle_id: [] for v in order}
    for i, a in enumerate(order):
        for b in order[i + 1 :]:
            d = math.dist(a.position, b.position)
            if not d <= scenario.comm_range:
                continue
            if not shared_frequency_pairs(a, b):
                continue
            for u, v in ((a, b), (b, a)):
                unchosen = Link(u.vehicle_id, v.vehicle_id, d, None, None)
                pair, bw = select_radio_pair(scenario, unchosen)
                adjacency[u.vehicle_id].append(unchosen._replace(radio_pair=pair, bandwidth=bw))
    positions = {v.vehicle_id: v.position for v in order}
    return LinkGraph(positions, lambda vid: tuple(adjacency[vid]))


def assert_matches_all_pairs(scenario):
    g, ref = build_link_graph(scenario), all_pairs_link_graph(scenario)
    assert g.vehicle_ids == ref.vehicle_ids
    for vid in ref.vehicle_ids:
        assert g.position(vid) == ref.position(vid)
        assert g.neighbors(vid) == ref.neighbors(vid)


@st.composite
def fleets(draw):
    """Small fleets shaped to stress a range-sized grid.

    Thin strips, ranges that cover the whole area, coordinates on multiples
    of the range and one ulp either side of them, repeated positions, and
    1-3 radios over 1-3 channels. Radio ids are listed out of ascending
    order and bandwidths take two values, so the radio choice often ties
    on bandwidth and must then go by id, not by list position.
    """
    width, height = draw(st.sampled_from([(500.0, 500.0), (5000.0, 50.0), (50.0, 5000.0)]))
    reach = draw(
        st.floats(1.0, 400.0)
        | st.floats(1.0, 3.0).map(lambda k: k * math.hypot(width, height))
    )

    def coordinate(limit):
        snapped = st.integers(0, int(limit // reach)).map(lambda k: k * reach)
        return st.floats(0.0, limit) | snapped.flatmap(
            lambda x: st.sampled_from(
                [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
            )
        )

    points = draw(st.lists(st.tuples(coordinate(width), coordinate(height)), min_size=1, max_size=40))
    points += draw(st.lists(st.sampled_from(points), max_size=5))
    ids = draw(st.permutations(range(1, len(points) + 1)))
    channels = draw(st.integers(1, 3))
    plan = st.lists(
        st.tuples(st.integers(1, channels), st.sampled_from([5.0, 9.0])), min_size=1, max_size=3
    )
    radio_ids = st.permutations(range(1, 4))
    vehicles = [
        make_vehicle(vid, x, y, [(rid, f, bw) for rid, (f, bw) in zip(draw(radio_ids), draw(plan))])
        for vid, (x, y) in zip(ids, points)
    ]
    return Scenario((width, height), reach, tuple(vehicles))


@given(scenario=fleets())
@example(scenario=fleet_3000(1))
@example(scenario=fleet_3000(2))
@example(scenario=fleet_3000(3))
@example(scenario=fleet_3000(4, radios=4, channels=8))  # most vehicles' radios differ
def test_grid_matches_all_pairs(scenario):
    assert_matches_all_pairs(scenario)


def test_pair_rounded_onto_the_range_links():
    # 512 - (256 - 2**-45) rounds to exactly 256.0, so the pair links, yet
    # x // 256 puts the two vehicles two cells apart
    s = Scenario(
        (600.0, 600.0), 256.0,
        (
            make_vehicle(1, 256 - 2**-45, 100, [(1, 1, 1.0)]),
            make_vehicle(2, 512, 100, [(1, 1, 1.0)]),
        ),
    )
    g = build_link_graph(s)
    assert g.link_count() == 1
    assert find_link(g, 1, 2).distance == 256.0


DEGENERATE_RANGES = [
    pytest.param((1000.0, 1000.0), math.inf, [(0, 0), (1000, 1000), (500, 0), (0, 1000)],
                 ["comm_range must be finite, got inf"], True, id="infinite-range"),
    # x / comm_range overflows to inf
    pytest.param((1e300, 1e300), 1e-300, [(1e300, 1e300), (1e300, 1e300), (0, 0), (5e299, 1e300)],
                 [], True, id="cell-index-overflow"),
    # every comparison with NaN is false, so neither may pass as in range
    pytest.param((100.0, 100.0), 50.0, [(0, 0), (math.nan, 0), (10, 0)],
                 ["vehicle 2: x must be finite, got nan"], False, id="nan-position"),
    pytest.param((100.0, 100.0), math.nan, [(0, 0), (10, 0)],
                 ["comm_range must be finite, got nan"], False, id="nan-range"),
]


def one_channel_fleet(area, comm_range, positions):
    vehicles = [make_vehicle(vid, x, y, [(1, 1, 1.0)]) for vid, (x, y) in enumerate(positions, 1)]
    return Scenario(area, comm_range, tuple(vehicles))


@pytest.mark.parametrize("area, comm_range, positions, problems, linked", DEGENERATE_RANGES)
def test_degenerate_ranges_match_all_pairs(area, comm_range, positions, problems, linked):
    s = one_channel_fleet(area, comm_range, positions)
    # a non-finite range or position no longer loads, but a Scenario built in
    # code can still carry one, and the builder must link only pairs in range
    assert validate_scenario(s) == problems
    assert_matches_all_pairs(s)
    g = build_link_graph(s)
    assert all(link.distance <= comm_range for vid in g.vehicle_ids for link in g.neighbors(vid))
    assert (find_link(g, 1, 2) is not None) == linked


def test_nan_channel_links_nothing():
    # NaN equals no channel, the very same NaN object included; the second
    # pair also shares channel 2, which links it
    nan = math.nan
    s = Scenario((100.0, 100.0), 50.0, (
        make_vehicle(1, 0, 0, [(1, nan, 1.0)]),
        make_vehicle(2, 10, 0, [(1, nan, 1.0)]),
        make_vehicle(3, 0, 10, [(1, nan, 9.0), (2, 2, 1.0)]),
        make_vehicle(4, 10, 10, [(1, 2, 1.0), (2, nan, 9.0)]),
    ))
    assert_matches_all_pairs(s)
    g = build_link_graph(s)
    assert g.link_count() == 1
    assert find_link(g, 3, 4).radio_pair == (2, 1)


@pytest.mark.parametrize(
    "scenario",
    [
        pytest.param(fleet_at_sweep_density(1, 30), id="30"),
        pytest.param(fleet_at_sweep_density(2, 300), id="300"),
        pytest.param(fleet_at_sweep_density(3, 300, radios=4, channels=8), id="300-4-radios-8-channels"),
        *(pytest.param(one_channel_fleet(*p.values[:3]), id=p.id) for p in DEGENERATE_RANGES),
    ],
)
def test_links_built_on_first_use_match_all_pairs(scenario):
    # everything that reads the graph before its links are read must leave
    # them as the all-pairs builder makes them, whatever order they are read in
    g, ref = build_link_graph(scenario), all_pairs_link_graph(scenario)
    ids = sorted(ref.vehicle_ids)
    pair = lowest_connected_pair(g)
    assert pair == components_lowest_pair(ref)
    if pair is not None:
        assert compare_routes(scenario, g, *pair) == compare_routes(scenario, ref, *pair)
    assert g.vehicle_ids == ref.vehicle_ids
    for vid in random.Random(len(ids)).sample(ids, len(ids)):
        assert g.neighbors(vid) == ref.neighbors(vid)
    assert [reachable(g, vid) for vid in ids] == [reachable(ref, vid) for vid in ids]
    assert g.link_count() == ref.link_count()


def test_a_graph_is_freed_without_the_cyclic_collector():
    # nothing a graph holds may point back at it: a cycle would leave every
    # sweep round's graph for the cyclic collector and raise peak memory
    gc.disable()
    try:
        g = build_link_graph(fleet_at_sweep_density(1, 300))
        pair = lowest_connected_pair(g)
        for vid in pair:
            assert g.neighbors(vid)
        graph = weakref.ref(g)
        del g
        assert graph() is None
    finally:
        gc.enable()


def test_concurrent_readers_get_the_all_pairs_links():
    # readers racing for one vehicle may both build its links; each must get
    # the reference tuples, and the graph must keep serving them
    scenario = fleet_at_sweep_density(4, 300)
    g, ref = build_link_graph(scenario), all_pairs_link_graph(scenario)
    ids = sorted(ref.vehicle_ids)
    expected = {vid: ref.neighbors(vid) for vid in ids}
    results = [None] * 4

    def read(k):
        order = random.Random(k).sample(ids, len(ids))
        results[k] = {vid: g.neighbors(vid) for vid in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)
    assert {vid: g.neighbors(vid) for vid in ids} == expected


@given(seed=st.integers(0, 2**32), radios=st.integers(1, 2))
def test_symmetry_property(seed, radios):
    s = small_gen(seed, count=7, radios=radios, pool=(1, 2, 3))
    g = build_link_graph(s)
    for vid in g.vehicle_ids:
        for link in g.neighbors(vid):
            back = find_link(g, link.to_vehicle, vid)
            assert back is not None and back.distance == link.distance


@given(
    seed=st.integers(0, 2**32),
    r1=st.floats(50.0, 300.0),
    grow=st.floats(1.0, 3.0),
)
def test_threshold_monotonicity(seed, r1, grow):
    s1 = small_gen(seed, count=7, comm_range=r1)
    s2 = Scenario(s1.area, r1 * grow, s1.vehicles)
    e1 = edge_set(build_link_graph(s1))
    e2 = edge_set(build_link_graph(s2))
    assert e1 <= e2


def edge_set(graph):
    return {
        (vid, l.to_vehicle) for vid in graph.vehicle_ids for l in graph.neighbors(vid)
    }
