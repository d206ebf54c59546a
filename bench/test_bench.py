"""Tests of the benchmark itself, kept apart from the project's tests.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

They check that a traced run leaves no wrapper behind, that the Dijkstra
reference agrees with the program's exact search, that the checker counts a
wrong route as failed, that traced work counts repeat exactly, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_FLEET = workloads.Fleet(300, (1500.0, 1500.0), 250.0, 2, (1, 2, 3))
SHORT_SWEEP = dataclasses.replace(workloads.SWEEP_SMALL, trace_commands=2)
SHORT_VALIDATE = dataclasses.replace(workloads.VALIDATE_BATCH, ref_ops=6)


def counts(outcome) -> dict:
    names = ("topology.links", "oracle.pairs", "router.hops", "router.queries", "router.no_route")
    return {name: outcome.metrics[name][0] for name in names}


def test_traced_run_removes_every_wrapper(tmp_path):
    outcome = workloads.run_cli(SHORT_SWEEP, 11, 0, True, tmp_path)
    assert outcome.metrics["topology.build.calls"][0] == SHORT_SWEEP.trace_commands * SHORT_SWEEP.ref_ops
    for module_name, attr, _ in tracing.PATCH_POINTS:
        fn = getattr(sys.modules[module_name], attr)
        assert not hasattr(fn, "__wrapped__"), f"{module_name}.{attr} is still wrapped"
        assert getattr(sys.modules[fn.__module__], fn.__name__) is fn


def test_reference_agrees_with_distance_search():
    from freqroute.metrics import Metric
    from freqroute.model import generate_scenario
    from freqroute.router import astar
    from freqroute.topology import build_link_graph

    for seed in (1, 2, 3):
        scenario = generate_scenario(SMALL_FLEET.spec(seed))
        graph = build_link_graph(scenario)
        adj = reference.link_adjacency(scenario)
        for vid in graph.vehicle_ids:
            assert sorted(adj[vid]) == sorted((l.to_vehicle, l.distance) for l in graph.neighbors(vid))
        rng = random.Random(seed)
        ids = sorted(graph.vehicle_ids)
        for src in rng.sample(ids, 10):
            shortest = reference.dijkstra(adj, src)
            for dst in rng.sample(ids, 10):
                route = astar(scenario, graph, src, dst, Metric.DISTANCE)
                if dst not in shortest:
                    assert route is None
                elif route.hops:
                    assert route.stats.total_distance == pytest.approx(shortest[dst], rel=1e-9)


def _fleet_results(tmp_path):
    from freqroute.metrics import Metric
    from freqroute.model import load_scenario
    from freqroute.router import astar
    from freqroute.topology import build_link_graph

    path = tmp_path / "fleet.json"
    queries, expected = workloads.prepare_fleet(SMALL_FLEET, 5, path)
    scenario = load_scenario(path.read_text())
    graph = build_link_graph(scenario)
    metrics = (Metric.DISTANCE, Metric.BANDWIDTH)
    slices = workloads.run_queries(scenario, graph, astar, queries, metrics, 0, 40, None)
    return scenario, queries, expected, [r for s in slices for r in s]


def test_checker_counts_wrong_routes(tmp_path):
    scenario, queries, expected, results = _fleet_results(tmp_path)
    assert workloads.check_routes(scenario, queries, expected, results) == 0

    i, route, *_ = next(r for r in results if queries[r[0]][2] == 0 and r[1].hop_count > 1)
    wrong = [
        # a route that stops one vehicle short of its destination
        (i, dataclasses.replace(route, hops=route.hops[:-1])),
        # a hop whose recorded distance is not the vehicles' distance
        (i, dataclasses.replace(route, hops=(
            dataclasses.replace(route.hops[0], distance=route.hops[0].distance + 1.0),
            *route.hops[1:]))),
        # no route where one exists, and a query that raised
        (i, None),
        (i, ValueError("boom")),
    ]
    assert workloads.check_routes(scenario, queries, expected, results + wrong) == len(wrong)


def test_checker_counts_wrong_csv_rows():
    from freqroute.harness import run_sweep, sweep_csv

    fleet, rounds = workloads.SMALL, 5
    text = sweep_csv(run_sweep(fleet.spec(0), rounds, 40))
    assert workloads.check_sweep_csv(fleet, 40, rounds, text) == 0
    lines = text.split("\n")
    row = lines[3].split(",")  # round 2, distance
    row[5] = f"{float(row[5]) + 0.001:.4f}"
    lines[3] = ",".join(row)
    lines[6] = lines[6].replace("bandwidth,true", "bandwidth,false")  # round 3
    assert workloads.check_sweep_csv(fleet, 40, rounds, "\n".join(lines)) == 2
    assert workloads.check_sweep_csv(fleet, 41, rounds, text) == rounds  # seed column disagrees


@pytest.mark.parametrize("run", [
    lambda tmp: workloads.run_cli(SHORT_SWEEP, 3, 0, True, tmp),
    lambda tmp: workloads.run_cli(SHORT_VALIDATE, 3000, 0, True, tmp),
    lambda tmp: workloads.run_route_fleet(3, 0, True, tmp, fleet=SMALL_FLEET, trace_queries=30),
], ids=["sweep-small", "validate-batch", "route-fleet"])
def test_traced_counts_repeat_exactly(run, tmp_path):
    first, second = run(tmp_path), run(tmp_path)
    assert counts(first) == counts(second)
    assert first.metrics["router.queries"][0] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *bench["command"][1:], "--workload", "sweep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
