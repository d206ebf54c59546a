"""Experiment drivers: endpoint picking, metric comparison, seeded sweeps, oracle checks."""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import NamedTuple

from .metrics import Metric
from .model import GenSpec, Scenario, generate_scenario
from .oracle import best_routes_from
from .router import Route, RouteStats, astar
from .topology import LinkGraph, build_link_graph

# cross-checks enumerate every simple path, so they are capped at small graphs
ORACLE_MAX_VEHICLES = 10
# a search cost within this of the exhaustive optimum counts as a match
MATCH_TOL = 1e-9


def lowest_connected_pair(graph: LinkGraph) -> tuple[int, int] | None:
    """First ordered id pair (lexicographically) whose vehicles can reach each other.

    Every id below the first vehicle with a link, `first`, is isolated, so
    `first` is the smallest id of its component and pairs with the smallest
    other id it reaches, which is at most its own lowest neighbour. The ids
    between are tried in ascending order, each with _walk_to_meet. A walk
    whose side from `first` runs dry has seen first's whole component, which
    settles the answer; one whose candidate's side runs dry rules out every
    id that side saw. A test costs at most about twice the smaller of the
    two components, so only the links of the vehicles those walks pop, and
    of the candidates tried, are built.
    """
    neighbors = graph.neighbors
    ids = sorted(graph.vehicle_ids)
    k = next((k for k, vid in enumerate(ids) if neighbors(vid)), None)
    if k is None:
        return None
    first, lowest = ids[k], neighbors(ids[k])[0].to_vehicle
    ruled_out: set[int] = set()
    for candidate in ids[k + 1:bisect_left(ids, lowest)]:
        if candidate in ruled_out or not neighbors(candidate):
            continue
        dry, seen = _walk_to_meet(graph, first, candidate)
        if dry is None:
            return first, candidate
        if dry == first:
            return first, min(seen - {first})
        ruled_out |= seen
    return first, lowest


def _walk_to_meet(graph: LinkGraph, a: int, b: int) -> tuple[int | None, set[int]]:
    """Grow a best-first walk from a toward b's position and one from b toward a's, a pop each in turn.

    Each side pops its vehicle nearest the other end in a straight line (ties
    to the lower id) and marks every neighbour it has not seen. Returns
    (None, ids seen) when a side marks an id the other side has seen: a and b
    are connected. Returns (a or b, ids that side saw) when that side runs
    out of vehicles to pop: what it saw is its whole component.
    """
    neighbors, position, hypot = graph.neighbors, graph.position, math.hypot
    a_seen, b_seen = {a}, {b}
    sides = [(a, a_seen, b_seen, [(0.0, a)], *position(b)), (b, b_seen, a_seen, [(0.0, b)], *position(a))]
    while True:
        for end, seen, other, heap, gx, gy in sides:
            if not heap:
                return end, seen
            for link in neighbors(heappop(heap)[1]):
                w = link.to_vehicle
                if w in seen:
                    continue
                if w in other:
                    return None, seen
                seen.add(w)
                x, y = position(w)
                heappush(heap, (hypot(x - gx, y - gy), w))


# --- metric comparison -----------------------------------------------------


def compare_routes(
    scenario: Scenario, graph: LinkGraph, source: int, dest: int
) -> dict[Metric, Route | None]:
    """Answer one `compare`, `sweep` or `validate` query under each metric, in `Metric` order.

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


class SweepRow(NamedTuple):
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
        scenario = generate_scenario(template._replace(seed=seed))
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
    return [row._replace(round=r) for r in range(1, rounds + 1) for row in rows]


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
                summary[f"mean_{name}"] = math.fsum(getattr(s, name) for s in found) / len(found)
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


@dataclass
class CrossCheckReport:
    scenarios: int = 0
    checks: dict[Metric, MetricCheck] = field(  # in Metric order
        default_factory=lambda: {metric: MetricCheck() for metric in Metric}
    )

    @property
    def connected_pairs(self) -> int:
        """Every connected ordered pair is checked once under each metric."""
        return self.checks[Metric.DISTANCE].pairs


def cross_check(scenarios: Iterable[Scenario]) -> CrossCheckReport:
    """Search vs exhaustive optimum, both metrics, every connected ordered pair of each scenario.

    The oracle walks every simple path, so scenarios above the vehicle cap are
    refused rather than left to run for an exponential time.
    Distance is expected to match everywhere; the ratio metric's rate is
    whatever it is, reported not promised.
    """
    report = CrossCheckReport()
    for scenario in scenarios:
        n = len(scenario.vehicles)
        if n > ORACLE_MAX_VEHICLES:
            raise ValueError(f"scenario has {n} vehicles; the oracle bound is {ORACLE_MAX_VEHICLES}")
        graph = build_link_graph(scenario)
        report.scenarios += 1
        for source in sorted(graph.vehicle_ids):
            optima = best_routes_from(graph, source)
            for dest in sorted(optima):
                for metric, route in compare_routes(scenario, graph, source, dest).items():
                    if route is None:
                        raise RuntimeError(
                            f"pair ({source}, {dest}) has a path but the search found none"
                        )
                    report.checks[metric].record(route.stats.cost(metric), optima[dest][metric].cost)
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
    specs = (template._replace(seed=base_seed + i, vehicle_count=min_vehicles + i % span)
             for i in range(count))
    return cross_check(generate_scenario(spec) for spec in specs)
