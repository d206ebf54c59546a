"""The four benchmark workloads: set-up, a timed closed loop, output checks, and a traced pass.

Every workload runs in its own process with one client that sends the next
operation only after the previous one returned. CLI workloads call
`freqroute.cli.main(argv)` in-process, exactly what `freqroute ...` runs, and
time the whole command; `route-fleet` embeds the library the way a planner
would. freqroute is imported only inside functions, because CLI set-up time
is measured by importing it afresh.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import math
import random
import re
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles
from typing import NamedTuple

import calibration
import reference
from tracing import Tracer, layer_metrics

CSV_HEADER = "round,seed,metric,found,hops,total_distance,avg_bandwidth,p_value"


@dataclass
class Outcome:
    """One run's result: operations attempted and failed, metrics as name -> (value, unit)."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    tracer: Tracer | None = None

    def tally(self, ops: int, failed: int) -> None:
        self.attempted += ops
        self.failed += failed


@dataclass(frozen=True)
class Fleet:
    """Generation flags shared by the CLI argv and the checker's own GenSpec."""

    vehicles: int
    area: tuple[float, float]
    comm_range: float
    radios: int
    freqs: tuple[int, ...]
    bw: tuple[float, float] = (2.0, 10.0)

    def flags(self) -> list[str]:
        return ["--vehicles", str(self.vehicles), "--area", *map(repr, self.area),
                "--range", repr(self.comm_range), "--radios", str(self.radios),
                "--freqs", ",".join(map(str, self.freqs)), "--bw", *map(repr, self.bw)]

    def spec(self, seed: int):
        from freqroute.model import GenSpec

        return GenSpec(seed, self.vehicles, self.area, self.comm_range, self.radios,
                       self.freqs, self.bw)


SMALL = Fleet(30, (1000.0, 1000.0), 200.0, 1, (1,))  # the CLI's sweep defaults
FLEET = Fleet(3000, (6000.0, 6000.0), 250.0, 2, (1, 2, 3))  # mean degree ~12, one giant component
ORACLE = Fleet(8, (500.0, 500.0), 200.0, 1, (1,))  # the CLI's validate defaults


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def _median_setup_s(fn, repeats: int) -> float:
    return median(calibration.scaled_call(fn)[1] for _ in range(repeats))


def end_to_end(samples: list[tuple[int, float, float]], op_latencies_s: list[float],
               setup_s: float, notes: list[str]) -> dict[str, tuple[float, str]]:
    """The untraced run's metrics.

    `samples` holds (operations, scaled seconds, wall seconds) per sample of
    the timed loop: a command, or a slice of queries. Times are in reference
    seconds (see calibration.py); the wall-clock rate goes to `notes`.
    """
    notes.append(f"wall-clock ops_per_s {median(ops / wall for ops, _, wall in samples):.4f} 1/s "
                 f"over {len(samples)} samples")
    return {
        "ops_per_s": (median(ops / scaled for ops, scaled, _ in samples), "1/s"),
        "op_p50_ms": (median(op_latencies_s) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _overhead(pairs: list[tuple[float, float]]) -> float:
    """Tracing's cost: the median over (untraced, traced) times of the same work, taken back to
    back, of traced over untraced, minus 1."""
    return median(traced / untraced for untraced, traced in pairs) - 1


# --- CLI workloads ---------------------------------------------------------


VALIDATE_MAX_VEHICLES = 10
SETUPS_CLI = 9  # fresh imports of freqroute.cli per run; setup_s is their median


@dataclass(frozen=True)
class CliWorkload:
    """A CLI command run back to back; command i gets --seed base + i * ops, so inputs never repeat.

    Before timing, a reference command of `ref_ops` operations at `digest_seed`
    runs, and its output (the CSV for sweeps, the printed summary for validate)
    must hash to `digest`: the byte-identical output contract. A traced run
    times `trace_commands` commands of `ref_ops` operations, each run untraced and
    then traced.
    """

    name: str
    verb: str  # "sweep" or "validate"
    fleet: Fleet
    ops: int  # operations per timed command: --rounds for sweep, --batch for validate
    ref_ops: int
    digest_seed: int
    digest: str
    trace_commands: int

    @property
    def is_sweep(self) -> bool:
        return self.verb == "sweep"

    def command(self, seed: int, ops: int, csv_path: Path) -> list[str]:
        if self.is_sweep:
            return ["sweep", "--rounds", str(ops), *self.fleet.flags(), "--seed", str(seed),
                    "--csv", str(csv_path)]
        return ["validate", "--batch", str(ops), "--vehicles-max", str(VALIDATE_MAX_VEHICLES),
                *self.fleet.flags(), "--seed", str(seed)]


SWEEP_SMALL = CliWorkload(
    "sweep-small", "sweep", SMALL, 200, 200, 0,
    "8af1abedabfc8a0593bc4d196893d4a35a90b7537f6ec372b7d09a59c97e2730", 10)
SWEEP_FLEET = CliWorkload(
    "sweep-fleet", "sweep", FLEET, 1, 1, 0,
    "a40719f31eb4621af1ddafe8a69a5f9da8fa9425c9425c246029ebb6fb2e86d7", 3)
# Timed batches hold 6 scenarios, two of each fleet size. Short samples follow
# the host's speed changes, and their median shrugs off the rare scenario whose
# enumeration costs 100 times the typical one. The reference and traced batch
# is the full --batch 200.
VALIDATE_BATCH = CliWorkload(
    "validate-batch", "validate", ORACLE, 6, 200, 3000,
    "109ae6b682051f113a63d57d7bc1c1471ffea6a05a8773a4966142f2e5c7fac0", 1)


def fresh_cli():
    """Import freqroute.cli as a new process would, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "freqroute" or m.startswith("freqroute.")]:
        del sys.modules[name]
    return importlib.import_module("freqroute.cli")


def call_cli(main, argv: list[str]) -> tuple[int, str]:
    """Run one command in-process; returns its exit code (3 if it raised) and stdout."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except (Exception, SystemExit) as exc:
        print(f"{argv[0]}: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 3
    return code, out.getvalue()


def check_sweep_csv(fleet: Fleet, first_seed: int, rounds: int, text: str) -> int:
    """Rounds of one sweep command whose CSV rows disagree with the reference."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or len(lines) != 2 * rounds + 2 or lines[-1] != "":
        return rounds
    return sum(
        not _sweep_round_ok(fleet, r, first_seed + r, lines[2 * r - 1], lines[2 * r])
        for r in range(1, rounds + 1)
    )


def _sweep_round_ok(fleet: Fleet, rnd: int, seed: int, dist_line: str, bw_line: str) -> bool:
    from freqroute.model import generate_scenario

    dist_row, bw_row = dist_line.split(","), bw_line.split(",")
    if dist_row[:3] != [str(rnd), str(seed), "distance"] or bw_row[:3] != [str(rnd), str(seed), "bandwidth"]:
        return False
    adj = reference.link_adjacency(generate_scenario(fleet.spec(seed)))
    pair = reference.lowest_connected_pair(adj)
    if pair is None:
        return dist_row[3:] == bw_row[3:] == ["false", "", "", "", ""]
    best = reference.dijkstra(adj, pair[0])[pair[1]]
    try:
        return (dist_row[3] == bw_row[3] == "true"
                and int(dist_row[4]) >= 1 and int(bw_row[4]) >= 1
                and abs(float(dist_row[5]) - best) <= 0.5e-4 + 1e-9
                and float(bw_row[5]) >= best - 1e-4)
    except (ValueError, IndexError):
        return False


VALIDATE_SUMMARY = re.compile(
    r"scenarios=(\d+) connected_ordered_pairs=(\d+)\n"
    r"distance +match (\d+)/(\d+) .*\n"
    r"bandwidth +match (\d+)/(\d+) ")


def parse_validate(stdout: str) -> tuple[int, int, int, int, int] | None:
    """(scenarios, distance matched, distance pairs, bandwidth matched, bandwidth pairs)."""
    m = VALIDATE_SUMMARY.match(stdout)
    if m is None:
        return None
    scenarios, _, d_ok, d_pairs, b_ok, b_pairs = map(int, m.groups())
    return scenarios, d_ok, d_pairs, b_ok, b_pairs


class Command(NamedTuple):
    seed: int
    ops: int
    code: int
    stdout: str
    digest: str  # SHA-256 of the output: the CSV for sweeps, stdout for validate
    failed: int
    scaled_s: float
    wall_s: float


def check_command(w: CliWorkload, seed: int, ops: int, code: int, output: str) -> int:
    """Failed operations of one command: all of them if it failed outright."""
    if code != 0:
        return ops
    if w.is_sweep:
        return check_sweep_csv(w.fleet, seed, ops, output)
    summary = parse_validate(output)
    if summary is None or summary[0] != ops or summary[1] != summary[2]:
        return ops
    return 0


def run_commands(w: CliWorkload, main, seeds, ops: int, budget_s: float | None, tmp: Path,
                 tracer: Tracer | None = None) -> list[Command]:
    """Run commands back to back until `seeds` or `budget_s` of timed wall time runs out.

    Each command is checked right after it ran, so its output is not kept.
    The calibration kernel runs just before and after each command, whose
    time is scaled by the two kernel times.
    """
    csv_path = tmp / "sweep.csv"
    runs: list[Command] = []
    spent = 0.0
    for seed in seeds:
        if budget_s is not None and spent >= budget_s:
            break
        if tracer is not None:
            tracer.op = seed
        before = calibration.kernel_s()
        start = time.perf_counter()
        code, stdout = call_cli(main, w.command(seed, ops, csv_path))
        wall = time.perf_counter() - start
        after = calibration.kernel_s()
        output = csv_path.read_text() if w.is_sweep and code == 0 else stdout
        runs.append(Command(seed, ops, code, stdout, hashlib.sha256(output.encode()).hexdigest(),
                            check_command(w, seed, ops, code, output),
                            calibration.scaled(wall, before, after), wall))
        spent += wall
    return runs


def run_cli(w: CliWorkload, seed: int, seconds: float, trace: bool, tmp: Path) -> Outcome:
    result = Outcome()
    setup_s = _median_setup_s(fresh_cli, SETUPS_CLI)
    main = sys.modules["freqroute.cli"].main

    (reference_run,) = run_commands(w, main, [w.digest_seed], w.ref_ops, None, tmp)
    failed = reference_run.failed
    if reference_run.digest != w.digest:
        result.notes.append(f"{w.name}: output at seed {w.digest_seed} hashes to "
                            f"{reference_run.digest}, expected {w.digest}")
        failed = w.ref_ops
    result.tally(w.ref_ops, failed)
    summaries = [reference_run]

    if trace:
        tracer = Tracer()
        traced_main = tracer.wrap("cli", main)
        untraced: list[Command] = []
        traced: list[Command] = []
        for i in range(w.trace_commands):
            command = [seed + i * w.ref_ops]
            untraced += run_commands(w, main, command, w.ref_ops, None, tmp)
            with tracer.installed():
                traced += run_commands(w, traced_main, command, w.ref_ops, None, tmp, tracer)
        runs = untraced + traced
        summaries.append(traced[0])
        result.metrics = layer_metrics(
            tracer.spans, sum(r.wall_s for r in traced),
            _overhead([(u.scaled_s, t.scaled_s) for u, t in zip(untraced, traced)]))
        result.tracer = tracer
    else:
        seeds = (seed + i * w.ops for i in itertools.count())
        runs = run_commands(w, main, seeds, w.ops, seconds, tmp)
        result.notes.append(f"{w.name}: {len(runs)} commands of {w.ops} operations each")
        result.metrics = end_to_end([(w.ops, r.scaled_s, r.wall_s) for r in runs],
                                    [r.scaled_s / w.ops for r in runs], setup_s, result.notes)
    for run in runs:
        result.tally(run.ops, run.failed)
    if not w.is_sweep:
        for run in summaries:
            summary = parse_validate(run.stdout)
            if summary is not None:
                result.notes.append(f"bandwidth_match_rate {summary[3] / summary[4]:.4f} "
                                    f"({summary[3]}/{summary[4]}) at validate --batch {run.ops} "
                                    f"--seed {run.seed}")
    return result


# --- route-fleet: the library embedded in a planner ------------------------

QUERY_SOURCES = 256  # distinct sources: enough that a seed's mix of route lengths is typical; one Dijkstra each
QUERY_LIST = 20_000
SLICE = 100  # queries per throughput sample
SETUPS_FLEET = 5  # set-ups per run; setup_s is their median

Query = tuple[int, int, int]  # (source, destination, index into the metrics pair)


def fleet_queries(adj: reference.Adjacency, seed: int) -> list[Query]:
    """Seeded queries inside the largest component."""
    comp = max(reference.components(adj), key=len)
    if len(comp) < 2:
        raise ValueError("the largest component has a single vehicle; no query to ask")
    rng = random.Random(seed)
    pool = rng.sample(comp, min(QUERY_SOURCES, len(comp)))
    queries = []
    for i in range(QUERY_LIST):
        src = rng.choice(pool)
        dst = rng.choice(comp)
        while dst == src:
            dst = rng.choice(comp)
        queries.append((src, dst, i % 2))
    return queries


def expected_distances(adj: reference.Adjacency, queries: list[Query]) -> list[float | None]:
    """The reference's shortest distance for each query, None where there is no route.

    One Dijkstra per source, each dropped once its queries have their answer.
    """
    by_source: dict[int, list[int]] = {}
    for i, (src, _, _) in enumerate(queries):
        by_source.setdefault(src, []).append(i)
    expected: list[float | None] = [None] * len(queries)
    for src, indices in by_source.items():
        shortest = reference.dijkstra(adj, src)
        for i in indices:
            expected[i] = shortest.get(queries[i][1])
    return expected


def prepare_fleet(fleet: Fleet, seed: int, path: Path) -> tuple[list[Query], list[float | None]]:
    """Write the fleet's scenario to `path`; return the queries and their reference answers.

    The generated scenario and the reference's links are freed on return, so
    the process's peak memory is reached while the program works, not while
    the checker does.
    """
    from freqroute.model import generate_scenario, save_scenario

    scenario = generate_scenario(fleet.spec(seed))
    path.write_text(save_scenario(scenario))
    adj = reference.link_adjacency(scenario)
    queries = fleet_queries(adj, seed)
    return queries, expected_distances(adj, queries)


def run_queries(scenario, graph, astar, queries: list[Query], metrics, start: int,
                stop: int | None, budget_s: float | None, tracer: Tracer | None = None):
    """Closed loop, one client, in slices of SLICE queries, from query `start` until
    query `stop` or `budget_s` of timed wall time.

    Yields each slice as a list of (query index, route or the exception
    raised, scaled seconds, wall seconds), so the caller can check it and let
    it go. The calibration kernel runs just before and after each slice, and
    each query's time is scaled by those two kernel times.
    """
    i = start
    spent = 0.0
    while (stop is None or i < stop) and (budget_s is None or spent < budget_s):
        timed = []
        end = i + SLICE if stop is None else min(i + SLICE, stop)
        before = calibration.kernel_s()
        while i < end:
            src, dst, m = queries[i % len(queries)]
            if tracer is not None:
                tracer.op = i
            start_s = time.perf_counter()
            try:
                route = astar(scenario, graph, src, dst, metrics[m])
                if route is not None:
                    route.stats  # the figures a caller reads off the route
            except Exception as exc:  # a failed query is counted, the loop goes on
                route = exc
            timed.append((i, route, time.perf_counter() - start_s))
            i += 1
        after = calibration.kernel_s()
        spent += sum(wall for _, _, wall in timed)
        yield [(q, r, calibration.scaled(wall, before, after), wall) for q, r, wall in timed]


def check_routes(scenario, queries: list[Query], expected: list[float | None], results) -> int:
    """Queries whose answer is missing, infeasible, or (distance) not the shortest."""
    vehicles = {v.vehicle_id: v for v in scenario.vehicles}
    failed = 0
    for i, route, *_ in results:
        q = i % len(queries)  # the timed loop wraps around the query list
        src, dst, m = queries[q]
        failed += not _route_ok(route, src, dst, m, expected[q], vehicles, scenario.comm_range)
    return failed


def _route_ok(route, src, dst, m, best, vehicles, comm_range) -> bool:
    if route is None or isinstance(route, Exception) or best is None:
        return route is None and best is None
    if reference.route_problems(route, src, dst, vehicles, comm_range):
        return False
    total = route.stats.total_distance
    if not math.isclose(total, sum(h.distance for h in route.hops), rel_tol=1e-9, abs_tol=1e-9):
        return False
    if m == 0:
        return math.isclose(total, best, rel_tol=1e-9, abs_tol=1e-9)
    return total >= best * (1 - 1e-9) - 1e-9


def run_route_fleet(seed: int, seconds: float, trace: bool, tmp: Path,
                    fleet: Fleet = FLEET, trace_queries: int = 300) -> Outcome:
    from freqroute.metrics import Metric
    from freqroute.model import load_scenario
    from freqroute.router import astar
    from freqroute.topology import build_link_graph

    result = Outcome()
    path = tmp / "fleet.json"
    queries, expected = prepare_fleet(fleet, seed, path)
    metrics = (Metric.DISTANCE, Metric.BANDWIDTH)

    def setup(load=load_scenario, build=build_link_graph):
        """What every `freqroute route` call pays before it searches."""
        scenario = load(path.read_text())
        return scenario, build(scenario)

    tracer = Tracer() if trace else None
    if trace:
        scenario, graph = setup(tracer.wrap("model.load", load_scenario),
                                tracer.wrap("topology.build", build_link_graph))
    else:
        setup_s = _median_setup_s(setup, SETUPS_FLEET)
        scenario, graph = setup()

    def checked(slices):
        """Check each slice as it arrives; keep only its timings."""
        kept = []
        for s in slices:
            result.tally(len(s), check_routes(scenario, queries, expected, s))
            kept.append([(scaled, wall) for _, _, scaled, wall in s])
        return kept

    if trace:
        traced_astar = tracer.wrap("router.astar", astar)
        pairs = []
        for first in range(0, trace_queries, SLICE):
            last = min(first + SLICE, trace_queries)
            (untraced,) = checked(run_queries(scenario, graph, astar, queries, metrics,
                                              first, last, None))
            with tracer.installed():
                (traced,) = checked(run_queries(scenario, graph, traced_astar, queries, metrics,
                                                first, last, None, tracer))
            pairs.append((untraced, traced))
        result.metrics = layer_metrics(
            tracer.spans, sum(wall for _, traced in pairs for _, wall in traced),
            _overhead([(sum(sc for sc, _ in u), sum(sc for sc, _ in t)) for u, t in pairs]))
        result.tracer = tracer
    else:
        slices = checked(run_queries(scenario, graph, astar, queries, metrics, 0, None, seconds))
        latencies = [scaled for s in slices for scaled, _ in s]
        result.notes.append(f"route-fleet: {len(latencies)} queries in {len(slices)} slices")
        if len(latencies) >= 1000:  # p99 with at least ten samples beyond it
            result.notes.append(f"op_p99_ms {quantiles(latencies, n=100)[98] * 1e3:.4f} ms")
        result.metrics = end_to_end(
            [(len(s), sum(sc for sc, _ in s), sum(wall for _, wall in s)) for s in slices],
            latencies, setup_s, result.notes)
    return result


WORKLOADS = {
    "sweep-small": lambda seed, seconds, trace, tmp: run_cli(SWEEP_SMALL, seed, seconds, trace, tmp),
    "sweep-fleet": lambda seed, seconds, trace, tmp: run_cli(SWEEP_FLEET, seed, seconds, trace, tmp),
    "route-fleet": run_route_fleet,
    "validate-batch": lambda seed, seconds, trace, tmp: run_cli(VALIDATE_BATCH, seed, seconds, trace, tmp),
}
