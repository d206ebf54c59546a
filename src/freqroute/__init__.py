"""Route planning for multi-radio vehicle networks with frequency-matched links."""

from .harness import (
    ORACLE_MAX_VEHICLES,
    CrossCheckReport,
    MetricCheck,
    SweepRow,
    compare_routes,
    cross_check,
    cross_check_batch,
    lowest_connected_pair,
    run_sweep,
    run_sweep_fixed,
    summarize_sweep,
    sweep_csv,
)
from .metrics import Metric
from .model import (
    GenSpec,
    Radio,
    Scenario,
    ScenarioError,
    ScenarioFormatError,
    ScenarioValidationError,
    Vehicle,
    generate_scenario,
    load_scenario,
    save_scenario,
    validate_scenario,
)
from .oracle import Optimum, best_routes_from
from .router import Hop, Route, RouteStats, astar, route_stats
from .topology import Link, LinkGraph, build_link_graph

__version__ = "0.1.0"

__all__ = [
    "ORACLE_MAX_VEHICLES",
    "CrossCheckReport",
    "GenSpec",
    "Hop",
    "Link",
    "LinkGraph",
    "Metric",
    "MetricCheck",
    "Optimum",
    "Radio",
    "Route",
    "RouteStats",
    "Scenario",
    "ScenarioError",
    "ScenarioFormatError",
    "ScenarioValidationError",
    "SweepRow",
    "Vehicle",
    "astar",
    "best_routes_from",
    "build_link_graph",
    "compare_routes",
    "cross_check",
    "cross_check_batch",
    "generate_scenario",
    "load_scenario",
    "lowest_connected_pair",
    "route_stats",
    "run_sweep",
    "run_sweep_fixed",
    "save_scenario",
    "summarize_sweep",
    "sweep_csv",
    "validate_scenario",
]
