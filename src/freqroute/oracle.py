"""Exhaustive ground truth: enumerate simple routes on small graphs, take the true optimum."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


def _walk_simple_paths(
    graph: LinkGraph,
    source: int,
    max_hops: int,
    visit: Callable[[list[int], float, float], None],
) -> None:
    """Depth-first sweep over every simple path from `source` with 1..max_hops edges.

    Neighbors are taken in ascending id order and shorter prefixes are visited
    before their extensions, so over the whole sweep the paths arrive in
    lexicographic vehicle-sequence order. `visit` receives the live path list
    (source included) plus the distance and bandwidth sums, each hop counted
    with its link's chosen receiving bandwidth; copy the list before keeping it.
    """
    path = [source]
    on_path = {source}
    neighbors = graph.neighbors

    def descend(u: int, dist_sum: float, bw_sum: float) -> None:
        for link in neighbors(u):
            w = link.to_vehicle
            if w in on_path:
                continue
            nd = dist_sum + link.distance
            nb = bw_sum + link.bandwidth
            path.append(w)
            on_path.add(w)
            visit(path, nd, nb)
            if len(path) - 1 < max_hops:
                descend(w, nd, nb)
            on_path.discard(w)
            path.pop()

    descend(source, 0.0, 0.0)


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

    def visit(path: list[int], dist_sum: float, bw_sum: float) -> None:
        if path[-1] == dest:
            sequences.append(tuple(path))

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
    if metric is Metric.DISTANCE:
        def key(r: Route):
            return (r.stats.total_distance, r.vehicle_sequence)
    else:
        def key(r: Route):
            return (r.stats.p_value, r.vehicle_sequence)
    return min(paths.routes, key=key)


def best_routes_from(
    graph: LinkGraph,
    source: int,
    max_hops: int,
) -> dict[int, dict[Metric, Route]]:
    """True optima from `source` to every reachable vehicle, in one exhaustive sweep.

    For each destination the distance-minimal and ratio-minimal routes are
    tracked incrementally instead of materializing every enumerated path, so
    this is the form the batch cross-checks use. Tie-breaking matches
    best_route: equal costs go to the smaller vehicle sequence.
    """
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    if source not in graph:
        raise ValueError(f"unknown vehicle id: {source}")

    # per destination: [shortest distance, its sequence, lowest ratio, its sequence]
    best: dict[int, list] = {}

    def visit(path: list[int], dist_sum: float, bw_sum: float) -> None:
        ratio = dist_sum / bw_sum
        slot = best.get(path[-1])
        if slot is None:
            seq = tuple(path)
            best[path[-1]] = [dist_sum, seq, ratio, seq]
            return
        if dist_sum < slot[0] or (dist_sum == slot[0] and tuple(path) < slot[1]):
            slot[0], slot[1] = dist_sum, tuple(path)
        if ratio < slot[2] or (ratio == slot[2] and tuple(path) < slot[3]):
            slot[2], slot[3] = ratio, tuple(path)

    _walk_simple_paths(graph, source, max_hops, visit)
    return {
        dest: {
            Metric.DISTANCE: route_from_sequence(graph, by_distance),
            Metric.BANDWIDTH: route_from_sequence(graph, by_ratio),
        }
        for dest, (_, by_distance, _, by_ratio) in best.items()
    }
