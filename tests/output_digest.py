"""One canonical text of freqroute's outputs, and its SHA-256.

    python tests/output_digest.py

prints the digest that `test_output_digest.py` pins. The text covers every
link of a few fleets (floats as `float.hex`, built in shuffled order after
`lowest_connected_pair` has run), the component of each fleet's lowest
connected pair, `astar` answers under both metrics, `best_routes_from`
optima over a slice of the
`validate --batch 200 --vehicles 8 --vehicles-max 10 --seed 3000` scenarios,
and one `sweep` CSV. A change that alters any of them on purpose re-pins the
digest and says why in CHANGES.md. Stdlib only, so any Python the package
supports can run it.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from collections import deque
from pathlib import Path

if __name__ == "__main__":  # run as a script: import the package from the checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from freqroute import (
    GenSpec,
    Metric,
    Radio,
    Scenario,
    Vehicle,
    astar,
    best_routes_from,
    build_link_graph,
    generate_scenario,
    lowest_connected_pair,
    run_sweep,
    sweep_csv,
)

QUERIES_PER_FLEET = 10


def _fleet(seed, count, radios=2, channels=3):
    """`count` vehicles at the 3000-vehicle sweep's density: range 250, 12,000 m² a vehicle."""
    side = 6000.0 * math.sqrt(count / 3000)
    spec = GenSpec(seed, count, (side, side), 250.0, radios, tuple(range(1, channels + 1)), (2.0, 10.0))
    return generate_scenario(spec)


def _tied_fleet(seed):
    """30 vehicles whose radios have shuffled ids and two bandwidths, so choices tie often."""
    rng = random.Random(seed)
    radios, channels = rng.randint(1, 4), rng.randint(1, 5)
    vehicles = []
    for vid in range(1, 31):
        ids = rng.sample(range(1, 2 * radios + 1), radios)
        plan = tuple(Radio(rid, rng.randint(1, channels), rng.choice((2.0, 4.0))) for rid in ids)
        vehicles.append(Vehicle(vid, (rng.uniform(0, 600), rng.uniform(0, 600)), plan))
    return Scenario((600.0, 600.0), 200.0, tuple(vehicles))


def _one_channel(comm_range, positions, area=(1000.0, 1000.0)):
    vehicles = (Vehicle(vid, (float(x), float(y)), (Radio(1, 1, 1.0),))
                for vid, (x, y) in enumerate(positions, 1))
    return Scenario(area, comm_range, tuple(vehicles))


def _degenerate_fleets():
    nan = math.nan
    yield _one_channel(math.inf, [(0, 0), (1000, 1000), (500, 0), (0, 1000)])
    yield _one_channel(1e-300, [(1e300, 1e300), (1e300, 1e300), (0, 0), (5e299, 1e300)], (1e300, 1e300))
    yield _one_channel(50.0, [(0, 0), (nan, 0), (10, 0)])
    yield _one_channel(nan, [(0, 0), (10, 0)])
    yield _one_channel(200.0, [(0, 0), (200, 0), (400, 0), (400, 0)])  # a pair exactly at range
    # NaN equals no channel, the very same NaN object included
    yield Scenario((100.0, 100.0), 50.0, (
        Vehicle(1, (0.0, 0.0), (Radio(1, nan, 1.0),)),
        Vehicle(2, (10.0, 0.0), (Radio(1, nan, 1.0),)),
        Vehicle(3, (0.0, 10.0), (Radio(1, nan, 9.0), Radio(2, 2, 1.0))),
        Vehicle(4, (10.0, 10.0), (Radio(1, 2, 1.0), Radio(2, nan, 9.0))),
    ))


def _fleets():
    yield _fleet(1, 3000)
    yield _fleet(4, 3000, radios=4, channels=8)
    yield _fleet(1, 30)
    yield _fleet(2, 300, radios=4, channels=8)
    for seed in range(8):
        yield _tied_fleet(seed)
    yield from _degenerate_fleets()


def reachable(graph, vehicle_id):
    """Every vehicle connected to `vehicle_id`, itself included, found breadth-first.

    The test suite's components helper reads it from here, so this script
    stays stdlib-only.
    """
    seen = {vehicle_id}
    queue = deque([vehicle_id])
    while queue:
        for link in graph.neighbors(queue.popleft()):
            if link.to_vehicle not in seen:
                seen.add(link.to_vehicle)
                queue.append(link.to_vehicle)
    return seen


def _route_text(route):
    if route is None:
        return "none"
    hops = " ".join(f"{h.vehicle_id}:{h.radio_pair[0]}:{h.radio_pair[1]}:{h.distance.hex()}:{h.bandwidth.hex()}"
                    for h in route.hops)
    s = route.stats
    return f"{route.source} {hops} | {s.total_distance.hex()} {s.avg_bandwidth.hex()} {s.p_value.hex()}"


def _fleet_lines(scenario, rng):
    graph = build_link_graph(scenario)
    ids = sorted(graph.vehicle_ids)
    pair = lowest_connected_pair(graph)
    # the links are built here, before link_count and reachable read them all
    link_lines = [
        f"{l.from_vehicle} {l.to_vehicle} {l.distance.hex()} {l.radio_pair[0]} {l.radio_pair[1]} {l.bandwidth.hex()}"
        for vid in rng.sample(ids, len(ids)) for l in graph.neighbors(vid)
    ]
    yield f"fleet {len(ids)} links {graph.link_count()} pair {pair}"
    if pair is not None:
        component = reachable(graph, pair[0])
        yield f"reachable {sorted(component)[:5]} of {len(component)}"
    yield from link_lines
    if len(ids) > 1:
        for _ in range(QUERIES_PER_FLEET):
            source, dest = rng.sample(ids, 2)
            for metric in Metric:
                yield f"astar {source} {dest} {metric.value} {_route_text(astar(scenario, graph, source, dest, metric))}"


def _oracle_lines():
    for i in range(0, 200, 10):
        spec = GenSpec(3000 + i, 8 + i % 3, (500.0, 500.0), 200.0, 1, (1,), (2.0, 10.0))
        graph = build_link_graph(generate_scenario(spec))
        for source in sorted(graph.vehicle_ids):
            for dest, optima in sorted(best_routes_from(graph, source).items()):
                for metric, (cost, seq) in optima.items():
                    yield f"oracle {i} {source} {dest} {metric.value} {cost.hex()} {seq}"


def lines():
    """The canonical text, line by line."""
    rng = random.Random(20131)
    for scenario in _fleets():
        yield from _fleet_lines(scenario, rng)
    yield from _oracle_lines()
    spec = GenSpec(0, 30, (1000.0, 1000.0), 200.0, 2, (1, 2, 3), (2.0, 10.0))
    yield sweep_csv(run_sweep(spec, 30, 100))  # `sweep --rounds 30 --seed 100 --radios 2 --freqs 1,2,3`


def digest() -> str:
    h = hashlib.sha256()
    for line in lines():
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
