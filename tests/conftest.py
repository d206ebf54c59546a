import math
from itertools import permutations

import pytest
from hypothesis import settings

from freqroute import GenSpec, Hop, Radio, Route, Scenario, Vehicle, generate_scenario
from output_digest import reachable

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


def make_vehicle(vid, x, y, radios):
    """radios: iterable of (radio_id, frequency, bandwidth)."""
    return Vehicle(vid, (float(x), float(y)), tuple(Radio(*r) for r in radios))


@pytest.fixture
def bridge():
    # three-vehicle chain: 1 and 2 share no channel and are out of range,
    # 3 sits between them bridging channel 2 (to 1) and channel 3 (to 2)
    return Scenario(
        area=(1000.0, 1000.0),
        comm_range=200.0,
        vehicles=(
            make_vehicle(1, 0, 0, [(1, 1, 4.0), (2, 2, 4.0)]),
            make_vehicle(2, 300, 0, [(3, 3, 4.0), (4, 4, 4.0)]),
            make_vehicle(3, 150, 0, [(5, 3, 4.0), (6, 2, 4.0)]),
        ),
    )


@pytest.fixture
def diamond():
    # single channel; 2 is the slow (bw 2) relay on the straight line,
    # 3 the fast (bw 10) relay slightly off it; 1 and 4 are 300 m apart
    return Scenario(
        area=(1000.0, 1000.0),
        comm_range=200.0,
        vehicles=(
            make_vehicle(1, 0, 0, [(1, 1, 10.0)]),
            make_vehicle(2, 150, 0, [(1, 1, 2.0)]),
            make_vehicle(3, 150, 50, [(1, 1, 10.0)]),
            make_vehicle(4, 300, 0, [(1, 1, 10.0)]),
        ),
    )


@pytest.fixture
def k4():
    # complete graph: four vehicles in a tight square, one shared channel
    return Scenario(
        area=(100.0, 100.0),
        comm_range=50.0,
        vehicles=(
            make_vehicle(1, 0, 0, [(1, 1, 5.0)]),
            make_vehicle(2, 10, 0, [(1, 1, 5.0)]),
            make_vehicle(3, 0, 10, [(1, 1, 5.0)]),
            make_vehicle(4, 10, 10, [(1, 1, 5.0)]),
        ),
    )


# text json.loads refuses with something other than a JSONDecodeError
UNPARSABLE_JSON = {
    "nested-200000-deep": "[" * 200_000,  # RecursionError
    "5001-digit-integer": (  # ValueError: past the int-string conversion limit
        '{"area": {"width": 10, "height": 10}, "comm_range": 5, "vehicles": ['
        '{"id": 1, "x": ' + "1" * 5001 + ', "y": 0, "radios": [{"id": 1, "freq": 1, "bw": 2}]}]}'
    ),
}


# valid in every field, yet a route cost overflows: (scenario, the one violation)
COST_OVERFLOW = {
    # 10 m at bw 1e-320 is a ratio of 1e321
    "subnormal-bw": (
        Scenario((100.0, 100.0), 50.0, tuple(
            make_vehicle(vid, x, 0, [(1, 1, 1e-320)]) for vid, x in ((1, 0), (2, 10), (3, 20))
        )),
        "area, bw: vehicle count * area diagonal / smallest bw must be finite, "
        "got 3 * 141.4213562373095 / 1e-320",
    ),
    # each hop is finite, the two-hop distance sum 1→2→3 is not
    "huge-area": (
        Scenario((1.7e308, 1.7e308), 1.5e308, (
            make_vehicle(1, 0, 0, [(1, 1, 1.0)]),
            make_vehicle(2, 1.5e308, 0, [(1, 1, 1.0), (2, 2, 1.0)]),
            make_vehicle(3, 1e307, 0, [(1, 2, 1.0)]),
        )),
        "area, bw: vehicle count * area diagonal / smallest bw must be finite, got 3 * inf / 1.0",
    ),
}


def find_link(graph, from_vehicle, to_vehicle):
    """The link from one vehicle to another, or None when they are not linked."""
    return next((l for l in graph.neighbors(from_vehicle) if l.to_vehicle == to_vehicle), None)


def find_radio(vehicle, radio_id):
    """The vehicle's one radio with this id."""
    (radio,) = [r for r in vehicle.radios if r.radio_id == radio_id]
    return radio


def route_from_sequence(graph, sequence):
    """The route along a vehicle-id sequence, each hop on its link's chosen radio pair.

    Raises ValueError if consecutive vehicles are not linked.
    """
    hops = []
    for prev, cur in zip(sequence, sequence[1:]):
        link = find_link(graph, prev, cur)
        if link is None:
            raise ValueError(f"vehicles {prev} and {cur} are not linked")
        hops.append(Hop(cur, link.radio_pair, link.distance, link.bandwidth))
    return Route(sequence[0], sequence[-1], tuple(hops))


def assert_route_feasible(scenario, graph, route):
    """Per-hop feasibility: linked, channel-matched, simple, costs consistent."""
    seq = route.vehicle_sequence
    assert len(set(seq)) == len(seq), f"route revisits a vehicle: {seq}"
    prev = route.source
    for hop in route.hops:
        link = find_link(graph, prev, hop.vehicle_id)
        assert link is not None, f"no link {prev}-{hop.vehicle_id}"
        tx, rx = hop.radio_pair
        tx_radio = find_radio(scenario.vehicle(prev), tx)
        rx_radio = find_radio(scenario.vehicle(hop.vehicle_id), rx)
        assert tx_radio.frequency == rx_radio.frequency
        assert hop.distance == link.distance
        assert hop.bandwidth == rx_radio.bandwidth
        prev = hop.vehicle_id
    assert prev == route.destination


def naive_simple_paths(graph, source, dest, max_hops):
    """Independent enumeration: try every permutation of intermediate vertices.

    Returns every simple source-to-dest vehicle sequence of 1..max_hops
    links, sorted. The oracle's reference in the tests.
    """
    others = [v for v in graph.vehicle_ids if v not in (source, dest)]
    found = []
    for k in range(0, max_hops):
        for mid in permutations(others, k):
            seq = (source, *mid, dest)
            if all(find_link(graph, a, b) is not None for a, b in zip(seq, seq[1:])):
                found.append(seq)
    return sorted(found)


def components(graph):
    """Connected components of a LinkGraph, ordered by their smallest vehicle id."""
    out, done = [], set()
    for vid in sorted(graph.vehicle_ids):
        if vid not in done:
            comp = reachable(graph, vid)
            done |= comp
            out.append(comp)
    return out


def components_lowest_pair(graph):
    """Reference for lowest_connected_pair read off whole components.

    The two smallest ids of the first component with more than one vehicle,
    or None when every vehicle is isolated.
    """
    for members in components(graph):
        if len(members) > 1:
            a, b = sorted(members)[:2]
            return a, b
    return None


def fleet_3000(seed, radios=2, channels=3):
    """A fleet at `freqroute sweep --vehicles 3000 --area 6000 6000 --range 250 --radios 2 --freqs 1,2,3`.

    The benchmark's `sweep-fleet` and `route-fleet` workloads run fleets like
    this one: mean degree about 12, one giant component. `radios` and
    `channels` (the pool is 1..channels) change the radio plans only.
    """
    return fleet_at_sweep_density(seed, 3000, radios, channels)


def fleet_at_sweep_density(seed, count, radios=2, channels=3):
    """`count` vehicles at fleet_3000's density: range 250 and 12,000 m² of area a vehicle."""
    side = 6000.0 * math.sqrt(count / 3000)
    return generate_scenario(
        GenSpec(
            seed, count, (side, side), 250.0, radios,
            tuple(range(1, channels + 1)), (2.0, 10.0),
        )
    )


def shared_frequency_pairs(a, b):
    """All (a-radio, b-radio) id pairs tuned to the same channel.

    Ordered by a's radio list then b's. An empty result means these two
    vehicles cannot link no matter how close they are.
    """
    return [
        (ra.radio_id, rb.radio_id)
        for ra in a.radios
        for rb in b.radios
        if ra.frequency == rb.frequency
    ]


def select_radio_pair(scenario, link):
    """Reference for the per-hop radio choice, from the two vehicles' radio pairs alone.

    Lists every shared-channel pair from the link's sending vehicle to its
    receiving one; the highest receiving-side bandwidth wins, ties go to the
    lowest receiving radio id, then the lowest transmitting id. Returns the
    (tx, rx) pair and the receiving bandwidth. This is the rule the search
    applied on every expansion before build_link_graph stored the choice on
    each link.
    """
    sender = scenario.vehicle(link.from_vehicle)
    receiver = scenario.vehicle(link.to_vehicle)
    best = None
    best_key = None
    for tx, rx in shared_frequency_pairs(sender, receiver):
        bw = find_radio(receiver, rx).bandwidth
        key = (-bw, rx, tx)
        if best_key is None or key < best_key:
            best_key = key
            best = ((tx, rx), bw)
    if best is None:
        raise ValueError(f"vehicles {link.from_vehicle} and {link.to_vehicle} share no channel")
    return best
