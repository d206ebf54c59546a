"""Experiment drivers: endpoint picking, metric comparison, seeded sweeps, oracle checks."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from statistics import fmean

from .metrics import Metric, RouteStats
from .model import GenSpec, Scenario, generate_scenario
from .oracle import best_routes_from
from .router import Route, astar
from .topology import LinkGraph, build_link_graph

# cross-checks enumerate every simple path, so they are capped at small graphs
ORACLE_MAX_VEHICLES = 10
# a search cost within this of the exhaustive optimum counts as a match
MATCH_TOL = 1e-9

METRICS = (Metric.DISTANCE, Metric.BANDWIDTH)


def lowest_connected_pair(graph: LinkGraph) -> tuple[int, int] | None:
    """First ordered id pair (lexicographically) whose vehicles can reach each other.

    Components come ordered by their smallest id, so the pair is the two
    smallest ids of the first component with more than one vehicle.
    """
    for members in graph.components():
        if len(members) > 1:
            a, b = sorted(members)[:2]
            return a, b
    return None


# --- metric comparison -----------------------------------------------------


@dataclass(frozen=True)
class CompareReport:
    """Both metrics answered on one query, side by side."""

    source: int
    destination: int
    distance_route: Route | None
    bandwidth_route: Route | None

    @property
    def both_found(self) -> bool:
        return self.distance_route is not None and self.bandwidth_route is not None

    @property
    def avg_bandwidth_delta(self) -> float:
        return (
            self.bandwidth_route.stats.avg_bandwidth
            - self.distance_route.stats.avg_bandwidth
        )

    @property
    def total_distance_delta(self) -> float:
        return (
            self.bandwidth_route.stats.total_distance
            - self.distance_route.stats.total_distance
        )

    @property
    def p_ordering_ok(self) -> bool:
        """Whether the ratio-guided route does at least as well on its own metric."""
        return self.bandwidth_route.stats.p_value <= self.distance_route.stats.p_value


def compare_routes(
    scenario: Scenario, graph: LinkGraph, source: int, dest: int
) -> CompareReport:
    """The one place a query is answered under both metrics; equal endpoints raise ValueError."""
    if source == dest:
        raise ValueError("source and dest must differ")
    return CompareReport(
        source,
        dest,
        astar(scenario, graph, source, dest, Metric.DISTANCE),
        astar(scenario, graph, source, dest, Metric.BANDWIDTH),
    )


# --- seeded sweeps ---------------------------------------------------------

SWEEP_CSV_HEADER = "round,seed,metric,found,hops,total_distance,avg_bandwidth,p_value"


@dataclass(frozen=True)
class SweepRow:
    """One metric's answer in one sweep round; `stats` is None when the round has no route."""

    round: int
    seed: int
    metric: str
    stats: RouteStats | None


def _rows_for_query(round_no, seed, scenario, graph, source, dest) -> list[SweepRow]:
    routes = (None, None)
    if source is not None:
        report = compare_routes(scenario, graph, source, dest)
        routes = (report.distance_route, report.bandwidth_route)
    return [
        SweepRow(round_no, seed, metric.value, None if route is None else route.stats)
        for metric, route in zip(METRICS, routes)
    ]


def _check_sweep_args(rounds: int, source: int | None, dest: int | None) -> None:
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if (source is None) != (dest is None):
        raise ValueError("source and dest must be given together")


def _endpoints(graph: LinkGraph, source: int | None, dest: int | None):
    """The fixed endpoints if given, else the graph's lowest connected pair, else (None, None)."""
    if source is not None:
        return source, dest
    return lowest_connected_pair(graph) or (None, None)


def run_sweep(
    template: GenSpec,
    rounds: int,
    base_seed: int,
    source: int | None = None,
    dest: int | None = None,
) -> list[SweepRow]:
    """One generated scenario per round (seed = base_seed + round), both metrics queried.

    Endpoints default to each round's lowest-id connected pair; a round with no
    connected pair at all yields rows without stats. Fixed endpoints that do not
    exist in some round raise, since the round count is part of the id space.
    """
    _check_sweep_args(rounds, source, dest)
    rows: list[SweepRow] = []
    for r in range(1, rounds + 1):
        seed = base_seed + r
        scenario = generate_scenario(replace(template, seed=seed))
        graph = build_link_graph(scenario)
        src, dst = _endpoints(graph, source, dest)
        rows.extend(_rows_for_query(r, seed, scenario, graph, src, dst))
    return rows


def run_sweep_fixed(
    scenario: Scenario,
    rounds: int = 1,
    source: int | None = None,
    dest: int | None = None,
) -> list[SweepRow]:
    """Sweep rows against one fixed scenario; the seed column records 0."""
    _check_sweep_args(rounds, source, dest)
    graph = build_link_graph(scenario)
    src, dst = _endpoints(graph, source, dest)
    rows: list[SweepRow] = []
    for r in range(1, rounds + 1):
        rows.extend(_rows_for_query(r, 0, scenario, graph, src, dst))
    return rows


def route_csv_fields(stats: RouteStats) -> str:
    """A found route's found,hops,total_distance,avg_bandwidth,p_value CSV columns, 4 decimals."""
    return f"true,{stats.hops},{stats.total_distance:.4f},{stats.avg_bandwidth:.4f},{stats.p_value:.4f}"


def sweep_csv(rows: list[SweepRow]) -> str:
    """Render rows in the fixed CSV layout: 4-decimal numbers, LF line endings.

    The layout is part of the interface; equal row lists always produce
    byte-identical text. Rows without a route leave the numeric fields empty.
    """
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        fields = "false,,,," if row.stats is None else route_csv_fields(row.stats)
        lines.append(f"{row.round},{row.seed},{row.metric},{fields}")
    return "\n".join(lines) + "\n"


def summarize_sweep(rows: list[SweepRow]) -> dict[str, dict[str, float]]:
    """Per metric: how many rounds produced a route, and the column means over those."""
    out: dict[str, dict[str, float]] = {}
    for metric in METRICS:
        found = [r.stats for r in rows if r.metric == metric.value and r.stats is not None]
        summary: dict[str, float] = {"rounds_with_route": len(found)}
        if found:
            summary["mean_total_distance"] = fmean(s.total_distance for s in found)
            summary["mean_avg_bandwidth"] = fmean(s.avg_bandwidth for s in found)
            summary["mean_p_value"] = fmean(s.p_value for s in found)
        out[metric.value] = summary
    return out


# --- oracle cross-checks ---------------------------------------------------


@dataclass
class MetricCheck:
    """Aggregate agreement between the search and the exhaustive optimum."""

    pairs: int = 0
    matched: int = 0
    worst_gap: float = 0.0  # worst relative cost excess over all pairs
    worst_matched_gap: float = 0.0  # largest absolute gap still inside tolerance

    @property
    def match_rate(self) -> float:
        return 1.0 if self.pairs == 0 else self.matched / self.pairs

    def record(self, search_cost: float, oracle_cost: float) -> None:
        gap = search_cost - oracle_cost
        if gap < -MATCH_TOL:
            # the search route is itself one of the enumerated paths
            raise RuntimeError(
                f"search cost {search_cost} below exhaustive minimum {oracle_cost}"
            )
        self.pairs += 1
        if abs(gap) <= MATCH_TOL:
            self.matched += 1
            self.worst_matched_gap = max(self.worst_matched_gap, abs(gap))
        rel = gap / oracle_cost if oracle_cost > 0 else 0.0
        self.worst_gap = max(self.worst_gap, rel)

    def merge(self, other: "MetricCheck") -> None:
        self.pairs += other.pairs
        self.matched += other.matched
        self.worst_gap = max(self.worst_gap, other.worst_gap)
        self.worst_matched_gap = max(self.worst_matched_gap, other.worst_matched_gap)


@dataclass
class CrossCheckReport:
    scenarios: int
    connected_pairs: int
    distance: MetricCheck = field(default_factory=MetricCheck)
    bandwidth: MetricCheck = field(default_factory=MetricCheck)

    def merge(self, other: "CrossCheckReport") -> None:
        self.scenarios += other.scenarios
        self.connected_pairs += other.connected_pairs
        self.distance.merge(other.distance)
        self.bandwidth.merge(other.bandwidth)


def cross_check(scenario: Scenario) -> CrossCheckReport:
    """Search vs exhaustive optimum, both metrics, every connected ordered pair.

    Uses max_hops = vehicle count - 1, i.e. full simple-path enumeration, and
    refuses scenarios above the vehicle cap instead of silently truncating.
    Distance is expected to match everywhere; the ratio metric's rate is
    whatever it is, reported not promised.
    """
    n = len(scenario.vehicles)
    if n > ORACLE_MAX_VEHICLES:
        raise ValueError(f"scenario has {n} vehicles; the oracle bound is {ORACLE_MAX_VEHICLES}")
    graph = build_link_graph(scenario)
    max_hops = max(1, n - 1)
    report = CrossCheckReport(scenarios=1, connected_pairs=0)
    for source in sorted(graph.vehicle_ids):
        optima = best_routes_from(graph, source, max_hops)
        for dest in sorted(optima):
            report.connected_pairs += 1
            for metric, check in zip(METRICS, (report.distance, report.bandwidth)):
                route = astar(scenario, graph, source, dest, metric)
                if route is None:
                    raise RuntimeError(
                        f"pair ({source}, {dest}) has a path but the search found none"
                    )
                check.record(route.stats.cost(metric), optima[dest][metric].cost)
    return report


def cross_check_batch(
    template: GenSpec,
    count: int,
    base_seed: int,
    min_vehicles: int,
    max_vehicles: int,
) -> CrossCheckReport:
    """Cross-check `count` generated scenarios, cycling vehicle counts over a range.

    Scenario i uses seed base_seed + i and min_vehicles + (i mod span) vehicles.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 1 <= min_vehicles <= max_vehicles <= ORACLE_MAX_VEHICLES:
        raise ValueError(
            f"vehicle counts must satisfy 1 <= min <= max <= {ORACLE_MAX_VEHICLES},"
            f" got ({min_vehicles}, {max_vehicles})"
        )
    span = max_vehicles - min_vehicles + 1
    total = CrossCheckReport(scenarios=0, connected_pairs=0)
    for i in range(count):
        spec = replace(
            template,
            seed=base_seed + i,
            vehicle_count=min_vehicles + (i % span),
        )
        total.merge(cross_check(generate_scenario(spec)))
    return total
