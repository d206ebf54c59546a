"""Route cost functions: plain shortest distance and the distance/bandwidth ratio."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .router import Route


class Metric(enum.Enum):
    """Which cost function orders the search frontier."""

    DISTANCE = "distance"
    BANDWIDTH = "bandwidth"


@dataclass(frozen=True)
class RouteStats:
    total_distance: float
    avg_bandwidth: float
    p_value: float
    hops: int

    def cost(self, metric: Metric) -> float:
        """The route's cost under `metric`: its total distance, or its finished ratio p."""
        return self.total_distance if metric is Metric.DISTANCE else self.p_value


def route_stats(route: "Route") -> RouteStats:
    """Summary figures for a completed route.

    total_distance sums the hop lengths, avg_bandwidth is the mean of the
    receiving-radio bandwidths, and p_value is the finished ratio (nothing
    left to estimate, so it is just total over bandwidth sum). Zero-hop
    routes have no hops to average and are rejected.
    """
    if not route.hops:
        raise ValueError("route_stats requires a route with at least one hop")
    total = 0.0
    bw = 0.0
    for hop in route.hops:
        total += hop.distance
        bw += hop.bandwidth
    return RouteStats(total, bw / len(route.hops), total / bw, len(route.hops))
