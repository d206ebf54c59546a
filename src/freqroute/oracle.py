"""Exhaustive ground truth: enumerate simple routes on small graphs, take the true optimum."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .metrics import Metric
from .router import Route, route_from_sequence
from .topology import LinkGraph


@dataclass(frozen=True)
class PathSet:
    """Every simple path answering one (source, dest, max_hops) query, in order."""

    routes: tuple[Route, ...]
    source: int
    destination: int
    max_hops: int


class Optimum(NamedTuple):
    """The true optimum to one destination under one metric."""

    cost: float  # DISTANCE: the distance sum; BANDWIDTH: distance sum / bandwidth sum
    vehicle_sequence: tuple[int, ...]


def _walk_simple_paths(
    graph: LinkGraph,
    source: int,
    max_hops: int,
    visit: Callable[[tuple[int, ...], float, float], None],
) -> None:
    """Depth-first sweep over every simple path from `source` with 1..max_hops edges.

    Neighbors are taken in ascending id order and shorter prefixes are visited
    before their extensions, so over the whole sweep the paths arrive in
    lexicographic vehicle-sequence order. `visit` receives the path tuple
    (source included) and its distance and bandwidth sums, added hop by hop
    from 0.0 as `route_stats` adds them. The walk reads plain
    `(to_vehicle, bit, distance, bandwidth)` tuples and keeps the path's
    vehicles as an int bitmask, one bit per index in `graph.vehicle_ids`.
    """
    bits = {vid: 1 << i for i, vid in enumerate(graph.vehicle_ids)}
    adjacency = {
        u: [(l.to_vehicle, bits[l.to_vehicle], l.distance, l.bandwidth) for l in graph.neighbors(u)]
        for u in bits
    }

    def descend(path, on_path: int, dist_sum: float, bw_sum: float, hops_left: int) -> None:
        for w, bit, distance, bandwidth in adjacency[path[-1]]:
            if not on_path & bit:
                extended = path + (w,)
                nd = dist_sum + distance
                nb = bw_sum + bandwidth
                visit(extended, nd, nb)
                if hops_left > 1:
                    descend(extended, on_path | bit, nd, nb, hops_left - 1)

    descend((source,), bits[source], 0.0, 0.0, max_hops)


def enumerate_paths(
    graph: LinkGraph,
    source: int,
    dest: int,
    max_hops: int,
) -> PathSet:
    """All simple channel-feasible paths from source to dest within the hop cap.

    Paths come out lexicographically ordered by vehicle-id sequence. A
    disconnected pair yields an empty set; source == dest yields the single
    zero-hop route.
    """
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    for vid in (source, dest):
        if vid not in graph:
            raise ValueError(f"unknown vehicle id: {vid}")
    if source == dest:
        return PathSet((Route(source, dest, ()),), source, dest, max_hops)

    sequences: list[tuple[int, ...]] = []

    def visit(path: tuple[int, ...], dist_sum: float, bw_sum: float) -> None:
        if path[-1] == dest:
            sequences.append(path)

    _walk_simple_paths(graph, source, max_hops, visit)
    routes = tuple(route_from_sequence(graph, seq) for seq in sequences)
    return PathSet(routes, source, dest, max_hops)


def best_route(paths: PathSet, metric: Metric) -> Route | None:
    """The true optimum in a path set, or None when the set is empty.

    Ties on cost go to the lexicographically smaller vehicle sequence.
    """
    if not paths.routes:
        return None
    if paths.source == paths.destination:
        return paths.routes[0]
    return min(paths.routes, key=lambda r: (r.stats.cost(metric), r.vehicle_sequence))


def best_routes_from(
    graph: LinkGraph,
    source: int,
    max_hops: int,
) -> dict[int, dict[Metric, Optimum]]:
    """True optima from `source` to every reachable vehicle, in one exhaustive sweep.

    Per destination and metric only the optimal cost and its vehicle
    sequence are kept; `route_from_sequence` gives the Route. Costs are
    summed as `route_stats` sums them, so each equals its Route's
    `total_distance` or `p_value` bit for bit. Paths arrive in lexicographic
    order and only a strictly smaller cost replaces a kept one, so ties go to
    the smaller vehicle sequence, as in best_route.
    """
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    if source not in graph:
        raise ValueError(f"unknown vehicle id: {source}")

    # per destination: [shortest distance, its sequence, lowest ratio, its sequence]
    best: dict[int, list] = {}

    def visit(path: tuple[int, ...], dist_sum: float, bw_sum: float) -> None:
        ratio = dist_sum / bw_sum
        slot = best.get(path[-1])
        if slot is None:
            best[path[-1]] = [dist_sum, path, ratio, path]
            return
        if dist_sum < slot[0]:
            slot[0], slot[1] = dist_sum, path
        if ratio < slot[2]:
            slot[2], slot[3] = ratio, path

    _walk_simple_paths(graph, source, max_hops, visit)
    return {
        dest: {Metric.DISTANCE: Optimum(dist, by_dist), Metric.BANDWIDTH: Optimum(ratio, by_ratio)}
        for dest, (dist, by_dist, ratio, by_ratio) in best.items()
    }
