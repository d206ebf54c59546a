"""Best-first route search over the link graph with open/closed bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush

from .metrics import Metric, RouteStats, route_stats
from .model import Scenario
from .topology import LinkGraph


@dataclass(frozen=True)
class Hop:
    """One traversed edge: the vehicle entered, the radio pair used, its cost terms."""

    vehicle_id: int
    radio_pair: tuple[int, int]  # (transmit radio on the previous vehicle, receive radio here)
    distance: float
    bandwidth: float  # receiving radio's bandwidth, kb/s


@dataclass(frozen=True)
class Route:
    source: int
    destination: int
    hops: tuple[Hop, ...]

    @property
    def hop_count(self) -> int:
        return len(self.hops)

    @property
    def vehicle_sequence(self) -> tuple[int, ...]:
        return (self.source, *(h.vehicle_id for h in self.hops))

    @cached_property
    def stats(self) -> RouteStats:
        return route_stats(self)


def astar(
    scenario: Scenario,
    graph: LinkGraph,
    source: int,
    dest: int,
    metric: Metric,
) -> Route | None:
    """Search the link graph for a route from source to dest under `metric`.

    Frontier discipline: pop the entry with the smallest ordering value (ties
    pop the lower vehicle id), close it, expand. Children already closed are
    dropped; children already on the frontier keep whichever state has the
    smaller value, back pointer included. Closed vehicles are never reopened.

    The ordering value of a partial route standing at a vehicle is, under
    DISTANCE, the distance walked plus the straight-line estimate of what
    remains. Under BANDWIDTH it is that same length divided by the bandwidth
    summed over the receiving radios so far, so routes that pick up fast
    receivers sort earlier. Each hop's radio pair and bandwidth are the ones
    its link carries (see build_link_graph).

    Under DISTANCE the straight-line estimate never overshoots the true
    remaining cost, so the returned route is exactly the shortest. Under
    BANDWIDTH the ratio is not additive and closing can be premature; the
    result is best-effort, and the exhaustive oracle measures how often it is
    exactly optimal.

    Returns None when the frontier drains without reaching dest (out of range,
    or no chain of matching channels). Unknown vehicle ids raise ValueError.
    A query with source == dest returns a zero-hop route.
    """
    for vid in (source, dest):
        if vid not in graph:
            raise ValueError(f"unknown vehicle id: {vid}")
    if source == dest:
        return Route(source, dest, ())

    vehicle = scenario.vehicle
    gx, gy = vehicle(dest).position
    by_distance = metric is Metric.DISTANCE
    # per vehicle: (f, dist_sum, bw_sum, link entering it, straight-line
    # estimate to dest), the link's from_vehicle being the back pointer; the
    # source pops first whatever its f and is closed before any child could
    # reach it, so it needs no estimate
    best: dict[int, tuple] = {source: (0.0, 0.0, 0.0, None, None)}
    closed: set[int] = set()
    frontier: list[tuple[float, int]] = [(0.0, source)]
    while frontier:
        f, vid = heappop(frontier)
        if vid in closed:
            continue
        closed.add(vid)  # re-pushes carry a strictly smaller f: the newest entry pops first
        node = best[vid]
        if vid == dest:
            return _reconstruct(best, source, dest)
        dist_sum, bw_sum = node[1], node[2]
        for link in graph.neighbors(vid):
            w = link.to_vehicle
            if w in closed:
                continue
            known = best.get(w)
            if known is None:
                x, y = vehicle(w).position
                remaining = math.hypot(x - gx, y - gy)  # euclid(position, goal)
            else:
                remaining = known[4]
            nd = dist_sum + link.distance
            nb = bw_sum + link.bandwidth
            f = nd + remaining if by_distance else (nd + remaining) / nb
            if known is None or f < known[0]:
                best[w] = (f, nd, nb, link, remaining)
                heappush(frontier, (f, w))
    return None


def _reconstruct(best, source, dest) -> Route:
    hops: list[Hop] = []
    link = best[dest][3]
    while link is not None:
        hops.append(Hop(link.to_vehicle, link.radio_pair, link.distance, link.bandwidth))
        link = best[link.from_vehicle][3]
    hops.reverse()
    return Route(source, dest, tuple(hops))


def route_from_sequence(graph: LinkGraph, sequence) -> Route:
    """Materialize a route from a vehicle-id sequence, each hop on its link's chosen radio pair.

    Raises ValueError if consecutive vehicles are not linked.
    """
    seq = tuple(sequence)
    if not seq:
        raise ValueError("sequence must contain at least the source vehicle")
    hops: list[Hop] = []
    for prev, cur in zip(seq, seq[1:]):
        link = graph.link(prev, cur)
        if link is None:
            raise ValueError(f"vehicles {prev} and {cur} are not linked")
        hops.append(Hop(cur, link.radio_pair, link.distance, link.bandwidth))
    return Route(seq[0], seq[-1], tuple(hops))
