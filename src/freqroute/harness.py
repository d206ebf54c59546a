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


def lowest_connected_pair(graph: LinkGraph) -> tuple[int, int] | None:
    """First ordered id pair (lexicographically) whose vehicles can reach each other.

    Every id below the first vehicle with a link is isolated, so that vehicle
    is the smallest id of its component and pairs with the smallest other id
    it reaches.
    """
    first = min((vid for vid in graph.vehicle_ids if graph.neighbors(vid)), default=None)
    if first is None:
        return None
    return first, min(graph.reachable(first) - {first})


# --- metric comparison -----------------------------------------------------


def compare_routes(
    scenario: Scenario, graph: LinkGraph, source: int, dest: int
) -> dict[Metric, Route | None]:
    """Answer one `compare` or `sweep` query under each metric, in `Metric` order.

    Equal endpoints raise ValueError.
    """
    if source == dest:
        raise ValueError("source and dest must differ")
    return {metric: astar(scenario, graph, source, dest, metric) for metric in Metric}


# a found route's output columns, in output order
STAT_NAMES = ("hops", "total_distance", "avg_bandwidth", "p_value")


def stat_fields(stats: RouteStats) -> tuple[str, ...]:
    """A found route's STAT_NAMES columns as text: hops as an integer, the rest to 4 decimals."""
    return (str(stats.hops), *(f"{getattr(stats, name):.4f}" for name in STAT_NAMES[1:]))


def csv_text(key_names: tuple[str, ...], rows) -> str:
    """CSV of (key values, stats) rows: the keys, `found`, then STAT_NAMES, empty if no route."""
    lines = [",".join((*key_names, "found", *STAT_NAMES))]
    no_route = ("false", *[""] * len(STAT_NAMES))
    for key, stats in rows:
        found = no_route if stats is None else ("true", *stat_fields(stats))
        lines.append(",".join((*map(str, key), *found)))
    return "\n".join(lines) + "\n"


# --- seeded sweeps ---------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One metric's answer in one sweep round; `stats` is None when the round has no route."""

    round: int
    seed: int
    metric: str
    stats: RouteStats | None


def _check_sweep_args(rounds: int, source: int | None, dest: int | None) -> None:
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if (source is None) != (dest is None):
        raise ValueError("source and dest must be given together")


def _round(round_no, seed, scenario, source, dest) -> list[SweepRow]:
    """One round's two rows: endpoints default to the graph's lowest connected pair, if any."""
    graph = build_link_graph(scenario)
    if source is None:
        source, dest = lowest_connected_pair(graph) or (None, None)
    routes = dict.fromkeys(Metric)
    if source is not None:
        routes = compare_routes(scenario, graph, source, dest)
    return [
        SweepRow(round_no, seed, metric.value, None if route is None else route.stats)
        for metric, route in routes.items()
    ]


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
        rows.extend(_round(r, seed, scenario, source, dest))
    return rows


def run_sweep_fixed(
    scenario: Scenario,
    rounds: int = 1,
    source: int | None = None,
    dest: int | None = None,
) -> list[SweepRow]:
    """One fixed scenario's query, answered once; its two rows repeat per round, seed 0."""
    _check_sweep_args(rounds, source, dest)
    rows = _round(1, 0, scenario, source, dest)
    return [replace(row, round=r) for r in range(1, rounds + 1) for row in rows]


def sweep_csv(rows: list[SweepRow]) -> str:
    """Render rows in the fixed CSV layout: 4-decimal numbers, LF line endings.

    The layout is part of the interface; equal row lists always produce
    byte-identical text. Rows without a route leave the numeric fields empty.
    """
    keyed = (((row.round, row.seed, row.metric), row.stats) for row in rows)
    return csv_text(("round", "seed", "metric"), keyed)


def summarize_sweep(rows: list[SweepRow]) -> dict[str, dict[str, float]]:
    """Per metric: how many rounds produced a route, and the column means over those."""
    out: dict[str, dict[str, float]] = {}
    for metric in Metric:
        found = [r.stats for r in rows if r.metric == metric.value and r.stats is not None]
        summary: dict[str, float] = {"rounds_with_route": len(found)}
        if found:
            for name in STAT_NAMES[1:]:
                summary[f"mean_{name}"] = fmean(getattr(s, name) for s in found)
        out[metric.value] = summary
    return out


# --- oracle cross-checks ---------------------------------------------------


@dataclass
class MetricCheck:
    """Aggregate agreement between the search and the exhaustive optimum."""

    pairs: int = 0
    matched: int = 0
    worst_gap: float = 0.0  # worst relative cost excess over all pairs

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
        rel = gap / oracle_cost if oracle_cost > 0 else 0.0
        self.worst_gap = max(self.worst_gap, rel)

    def merge(self, other: "MetricCheck") -> None:
        self.pairs += other.pairs
        self.matched += other.matched
        self.worst_gap = max(self.worst_gap, other.worst_gap)


@dataclass
class CrossCheckReport:
    scenarios: int
    checks: dict[Metric, MetricCheck] = field(  # in Metric order
        default_factory=lambda: {metric: MetricCheck() for metric in Metric}
    )

    @property
    def connected_pairs(self) -> int:
        """Every connected ordered pair is checked once under each metric."""
        return self.checks[Metric.DISTANCE].pairs

    def merge(self, other: "CrossCheckReport") -> None:
        self.scenarios += other.scenarios
        for metric, check in self.checks.items():
            check.merge(other.checks[metric])


def cross_check(scenario: Scenario) -> CrossCheckReport:
    """Search vs exhaustive optimum, both metrics, every connected ordered pair.

    The oracle walks every simple path, so scenarios above the vehicle cap are
    refused rather than left to run for an exponential time.
    Distance is expected to match everywhere; the ratio metric's rate is
    whatever it is, reported not promised.
    """
    n = len(scenario.vehicles)
    if n > ORACLE_MAX_VEHICLES:
        raise ValueError(f"scenario has {n} vehicles; the oracle bound is {ORACLE_MAX_VEHICLES}")
    graph = build_link_graph(scenario)
    report = CrossCheckReport(scenarios=1)
    for source in sorted(graph.vehicle_ids):
        optima = best_routes_from(graph, source)
        for dest in sorted(optima):
            for metric, check in report.checks.items():
                route = astar(scenario, graph, source, dest, metric)
                if route is None:
                    raise RuntimeError(
                        f"pair ({source}, {dest}) has a path but the search found none"
                    )
                check.record(route.stats.cost(metric), optima[dest][metric].cost)
    return report


def cross_check_batch(template: GenSpec, count: int, max_vehicles: int) -> CrossCheckReport:
    """Cross-check `count` generated scenarios, cycling vehicle counts over a range.

    Scenario i uses seed template.seed + i and template.vehicle_count +
    (i mod span) vehicles, up to `max_vehicles`.
    """
    base_seed, min_vehicles = template.seed, template.vehicle_count
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 1 <= min_vehicles <= max_vehicles <= ORACLE_MAX_VEHICLES:
        raise ValueError(
            f"vehicle counts must satisfy 1 <= min <= max <= {ORACLE_MAX_VEHICLES},"
            f" got ({min_vehicles}, {max_vehicles})"
        )
    span = max_vehicles - min_vehicles + 1
    total = CrossCheckReport(scenarios=0)
    for i in range(count):
        spec = replace(template, seed=base_seed + i, vehicle_count=min_vehicles + (i % span))
        total.merge(cross_check(generate_scenario(spec)))
    return total
