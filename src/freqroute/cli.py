"""Command line interface: gen, route, compare, sweep, and validate subcommands."""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
from pathlib import Path

from .harness import (
    ORACLE_MAX_VEHICLES,
    STAT_NAMES,
    compare_routes,
    cross_check,
    cross_check_batch,
    csv_text,
    run_sweep,
    run_sweep_fixed,
    stat_fields,
    summarize_sweep,
    sweep_csv,
)
from .metrics import Metric
from .model import GenSpec, ScenarioError, generate_scenario, load_scenario, save_scenario
from .router import Route, astar
from .topology import build_link_graph

ARROW = "→"

# exit codes: 0 success / route found, 1 no route, 2 invalid input or flags,
# 141 stdout closed early (128 + SIGPIPE, as a shell reports a writer a closed pipe killed)
EXIT_OK = 0
EXIT_NO_ROUTE = 1
EXIT_INVALID = 2
EXIT_BROKEN_PIPE = 141


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {value}")
    return value


def _freq_list(text: str) -> tuple[int, ...]:
    try:
        pool = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not pool:
        raise argparse.ArgumentTypeError("frequency list must not be empty")
    return pool


class _GenFlag(argparse.Action):
    """Stores a generation flag's value and notes, in order, that the flag was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.gen_flags_given = (*namespace.gen_flags_given, self.option_strings[0])


def _add_gen_flags(parser, *, vehicles, area):
    parser.set_defaults(gen_flags_given=())
    add = partial(parser.add_argument, action=_GenFlag)
    add("--seed", type=int, default=0, help="generation seed (default 0)")
    add("--vehicles", type=_positive_int, default=vehicles,
        help=f"number of vehicles (default {vehicles})")
    add("--area", type=_positive_float, nargs=2, metavar=("W", "H"),
        default=list(area), help=f"area size in meters (default {area[0]:g} {area[1]:g})")
    add("--range", dest="comm_range", type=_positive_float, default=200.0,
        help="communication range in meters (default 200)")
    add("--radios", type=_positive_int, default=1, help="radios per vehicle (default 1)")
    add("--freqs", type=_freq_list, default=(1,), help="comma-separated channel pool (default 1)")
    add("--bw", type=_positive_float, nargs=2, metavar=("MIN", "MAX"),
        default=[2.0, 10.0], help="bandwidth range in kb/s (default 2 10)")


def _fixed_scenario(args):
    """The --scenario file's scenario, or None when --scenario was not given.

    A fixed scenario is not generated, so a generation flag given with it is an error.
    """
    if args.scenario is None:
        return None
    if args.gen_flags_given:
        raise ValueError(f"{args.gen_flags_given[0]} cannot be used with --scenario")
    return _load(args.scenario)


def _genspec(args) -> GenSpec:
    return GenSpec(
        seed=args.seed,
        vehicle_count=args.vehicles,
        area=args.area,
        comm_range=args.comm_range,
        radios_per_vehicle=args.radios,
        frequency_pool=args.freqs,
        bandwidth_range=args.bw,
    )


def _load(path: str):
    return load_scenario(Path(path).read_text())


def _fmt_route(route: Route) -> str:
    return ARROW.join(str(v) for v in route.vehicle_sequence)


# compare's table: metric, route, then STAT_NAMES; each column but the last is
# as wide as its longest cell and at least as wide as given here
_TABLE_WIDTHS = (10, 28, 5, 15, 14)


# --- subcommands -----------------------------------------------------------


def cmd_gen(args) -> int:
    out = Path(args.out)
    if out.exists() and not args.force:
        print(f"error: {out} exists; pass --force to overwrite", file=sys.stderr)
        return EXIT_INVALID
    scenario = generate_scenario(_genspec(args))
    out.write_text(save_scenario(scenario))
    print(f"wrote {out} ({len(scenario.vehicles)} vehicles)")
    return EXIT_OK


def cmd_route(args) -> int:
    scenario = _load(args.scenario)
    graph = build_link_graph(scenario)
    route = astar(scenario, graph, args.src, args.dst, Metric(args.metric))
    if route is None:
        print("NO ROUTE")
        return EXIT_NO_ROUTE
    print(_fmt_route(route))
    if route.hops:
        print(" ".join(map("=".join, zip(STAT_NAMES, stat_fields(route.stats)))))
    else:
        print("hops=0 total_distance=0.0000")
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario = _load(args.scenario)
    graph = build_link_graph(scenario)
    routes = compare_routes(scenario, graph, args.src, args.dst)
    if args.csv:
        keyed = (((m.value,), None if r is None else r.stats) for m, r in routes.items())
        Path(args.csv).write_text(csv_text(("metric",), keyed))
    if None in routes.values():
        # link feasibility does not depend on the metric, so it is both or neither
        print("NO ROUTE")
        return EXIT_NO_ROUTE
    table = [("metric", "route", *STAT_NAMES)]
    table += [(metric.value, _fmt_route(route), *stat_fields(route.stats)) for metric, route in routes.items()]
    widths = [max(width, *(len(row[k]) for row in table)) for k, width in enumerate(_TABLE_WIDTHS)]
    for row in table:
        print(*(cell.ljust(width) for cell, width in zip(row, widths)), row[-1])
    dist, bw = routes[Metric.DISTANCE].stats, routes[Metric.BANDWIDTH].stats
    print(f"delta: avg_bandwidth {bw.avg_bandwidth - dist.avg_bandwidth:+.4f}, "
          f"total_distance {bw.total_distance - dist.total_distance:+.4f}")
    print("check: p(bandwidth) <= p(distance): "
          + ("ok" if bw.p_value <= dist.p_value else "VIOLATED"))
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = _fixed_scenario(args)
    if scenario is not None:
        rows = run_sweep_fixed(scenario, args.rounds, args.src, args.dst)
    else:
        rows = run_sweep(_genspec(args), args.rounds, args.seed, args.src, args.dst)
    text = sweep_csv(rows)
    if args.csv:
        Path(args.csv).write_text(text)
        print(f"wrote {args.csv} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    for name, summary in summarize_sweep(rows).items():
        means = (f"{key}={value:.4f}" for key, value in summary.items() if key != "rounds_with_route")
        print(f"{name}: rounds_with_route={summary['rounds_with_route']}", *means)
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = _fixed_scenario(args)
    if scenario is not None:
        report = cross_check([scenario])
    else:
        vmax = args.vehicles_max if args.vehicles_max is not None else args.vehicles
        report = cross_check_batch(_genspec(args), args.batch, vmax)
    print(f"scenarios={report.scenarios} connected_ordered_pairs={report.connected_pairs}")
    for metric, check in report.checks.items():
        print(f"{metric.value:<10} match {check.matched}/{check.pairs} ({check.match_rate:.1%}) "
              f"worst_relative_gap {check.worst_gap:.3e}")
    return EXIT_OK


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqroute",
        description="Route planning over multi-radio vehicle networks where links "
                    "require matching frequency channels and adequate range.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random scenario file")
    _add_gen_flags(gen, vehicles=30, area=(1000.0, 1000.0))
    gen.add_argument("--out", required=True, help="output scenario path")
    gen.add_argument("--force", action="store_true", help="overwrite an existing file")
    gen.set_defaults(func=cmd_gen)

    route = sub.add_parser("route", help="find a route between two vehicles")
    route.add_argument("--scenario", required=True, help="scenario JSON file")
    route.add_argument("--src", type=int, required=True, help="source vehicle id")
    route.add_argument("--dst", type=int, required=True, help="destination vehicle id")
    route.add_argument("--metric", choices=[m.value for m in Metric],
                       default="distance", help="cost metric (default distance)")
    route.set_defaults(func=cmd_route)

    compare = sub.add_parser("compare", help="route the same query under both metrics")
    compare.add_argument("--scenario", required=True, help="scenario JSON file")
    compare.add_argument("--src", type=int, required=True, help="source vehicle id")
    compare.add_argument("--dst", type=int, required=True, help="destination vehicle id")
    compare.add_argument("--csv", help="also write the two result rows as CSV")
    compare.set_defaults(func=cmd_compare)

    sweep = sub.add_parser("sweep", help="run repeated rounds over generated scenarios")
    sweep.add_argument("--rounds", type=_positive_int, default=30,
                       help="number of rounds (default 30)")
    _add_gen_flags(sweep, vehicles=30, area=(1000.0, 1000.0))
    sweep.add_argument("--scenario", help="use a fixed scenario file instead of generating")
    sweep.add_argument("--src", type=int, help="fixed source vehicle id")
    sweep.add_argument("--dst", type=int, help="fixed destination vehicle id")
    sweep.add_argument("--csv", help="write rows to this file instead of stdout")
    sweep.set_defaults(func=cmd_sweep)

    validate = sub.add_parser(
        "validate",
        help="cross-check search results against exhaustive enumeration "
             f"(scenarios up to {ORACLE_MAX_VEHICLES} vehicles)",
    )
    mode = validate.add_mutually_exclusive_group(required=True)
    mode.add_argument("--scenario", help="scenario JSON file to check")
    mode.add_argument("--batch", type=_positive_int,
                      help="instead generate and check this many scenarios")
    _add_gen_flags(validate, vehicles=8, area=(500.0, 500.0))
    validate.add_argument("--vehicles-max", action=_GenFlag, type=_positive_int, default=None,
                          help="cycle vehicle counts from --vehicles up to this")
    validate.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the exit-time flush is silent too
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return code


if __name__ == "__main__":
    sys.exit(main())
