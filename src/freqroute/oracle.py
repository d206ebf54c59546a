"""Exhaustive ground truth: walk every simple route on small graphs, keep the true optimum."""

from __future__ import annotations

from typing import NamedTuple

from .metrics import Metric
from .topology import LinkGraph


class Optimum(NamedTuple):
    """The true optimum to one destination under one metric."""

    cost: float  # DISTANCE: the distance sum; BANDWIDTH: distance sum / bandwidth sum
    vehicle_sequence: tuple[int, ...]


def best_routes_from(graph: LinkGraph, source: int) -> dict[int, dict[Metric, Optimum]]:
    """True optima from `source` to every reachable vehicle, in one exhaustive sweep.

    A depth-first walk visits every simple path from `source`, so its time is
    exponential in the fleet size; `cross_check` bounds it by refusing fleets
    above `ORACLE_MAX_VEHICLES`. It reads plain
    `(to_vehicle, bit, distance, bandwidth)` tuples and keeps the path's
    vehicles as an int bitmask, one bit per index in `graph.vehicle_ids`. Per
    destination and metric only the optimal cost and its vehicle sequence are
    kept. Costs are summed hop by hop from 0.0 as `route_stats` sums them, so
    each equals its Route's `total_distance` or `p_value` bit for bit.
    Neighbours are taken in ascending id order and each prefix is visited
    before its extensions, so paths arrive in lexicographic order; only a
    strictly smaller cost replaces a kept one, so ties go to the smaller
    sequence.
    """
    if source not in graph:
        raise ValueError(f"unknown vehicle id: {source}")

    bits = {vid: 1 << i for i, vid in enumerate(graph.vehicle_ids)}
    adjacency = {
        u: [(l.to_vehicle, bits[l.to_vehicle], l.distance, l.bandwidth) for l in graph.neighbors(u)]
        for u in bits
    }
    # per destination: [shortest distance, its sequence, lowest ratio, its sequence]
    best: dict[int, list] = {}

    def descend(path, on_path: int, dist_sum: float, bw_sum: float) -> None:
        for w, bit, distance, bandwidth in adjacency[path[-1]]:
            if not on_path & bit:
                extended = path + (w,)
                nd = dist_sum + distance
                nb = bw_sum + bandwidth
                ratio = nd / nb
                slot = best.get(w)
                if slot is None:
                    best[w] = [nd, extended, ratio, extended]
                else:
                    if nd < slot[0]:
                        slot[0], slot[1] = nd, extended
                    if ratio < slot[2]:
                        slot[2], slot[3] = ratio, extended
                descend(extended, on_path | bit, nd, nb)

    descend((source,), bits[source], 0.0, 0.0)
    return {
        dest: {Metric.DISTANCE: Optimum(dist, by_dist), Metric.BANDWIDTH: Optimum(ratio, by_ratio)}
        for dest, (dist, by_dist, ratio, by_ratio) in best.items()
    }
