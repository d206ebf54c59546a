"""Acceptance gate: one test per shipped criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
without -s pytest swallows them on success and shows them on failure.
"""

import csv
import time
from contextlib import contextmanager

import pytest

from freqroute import (
    GenSpec,
    Metric,
    Radio,
    Scenario,
    Vehicle,
    astar,
    best_routes_from,
    build_link_graph,
    cli,
    cross_check_batch,
    generate_scenario,
    load_scenario,
    lowest_connected_pair,
    save_scenario,
)
from freqroute.harness import ORACLE_MAX_VEHICLES
from conftest import assert_route_feasible, find_link, naive_simple_paths


@contextmanager
def criterion(num: int, label: str, budget: float | None = None):
    """Times the body, enforces the runtime budget, prints one verdict line."""
    info: dict = {}
    t0 = time.perf_counter()
    try:
        yield info
        info.setdefault("elapsed", time.perf_counter() - t0)
        if budget is not None:
            assert info["elapsed"] < budget, (
                f"criterion {num} took {info['elapsed']:.2f}s, budget {budget:.0f}s"
            )
    except BaseException:
        print(f"[acceptance] criterion {num}: {label}: FAIL")
        raise
    detail = info.get("detail", "")
    tail = f", {detail}" if detail else ""
    print(f"[acceptance] criterion {num}: {label}: PASS ({info['elapsed']:.2f}s{tail})")


@pytest.fixture(scope="session")
def batch200():
    """The shared 200-scenario oracle batch: 8-10 vehicles, one channel, 500x500."""
    template = GenSpec(
        seed=3000,
        vehicle_count=8,
        area=(500.0, 500.0),
        comm_range=200.0,
        radios_per_vehicle=1,
        frequency_pool=(1,),
        bandwidth_range=(2.0, 10.0),
    )
    t0 = time.perf_counter()
    report = cross_check_batch(template, count=200, max_vehicles=10)
    return report, time.perf_counter() - t0


def bridge_scenario() -> Scenario:
    # 1 and 2 are out of range and share no channel; 3 bridges them,
    # holding one channel in common with each endpoint
    def vehicle(vid, x, y, radios):
        return Vehicle(vid, (float(x), float(y)), tuple(Radio(*r) for r in radios))

    return Scenario(
        area=(1000.0, 1000.0),
        comm_range=200.0,
        vehicles=(
            vehicle(1, 0, 0, [(1, 1, 4.0), (2, 2, 4.0)]),
            vehicle(2, 300, 0, [(3, 3, 4.0), (4, 4, 4.0)]),
            vehicle(3, 150, 0, [(5, 3, 4.0), (6, 2, 4.0)]),
        ),
    )


def test_criterion_1_forced_relay(tmp_path, capsys):
    with criterion(1, "channel structure forces the relay route", budget=1.0) as info:
        full = tmp_path / "bridge.json"
        full.write_text(save_scenario(bridge_scenario()))
        for metric in ("distance", "bandwidth"):
            rc = cli.main(["route", "--scenario", str(full), "--src", "1", "--dst", "2",
                           "--metric", metric])
            out = capsys.readouterr().out
            assert rc == 0
            assert out.splitlines()[0] == "1→3→2"

        s = bridge_scenario()
        cut = tmp_path / "bridge-cut.json"
        cut.write_text(save_scenario(Scenario(s.area, s.comm_range, s.vehicles[:2])))
        rc = cli.main(["route", "--scenario", str(cut), "--src", "1", "--dst", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert out == "NO ROUTE\n"
        info["detail"] = "route 1→3→2 under both metrics; NO ROUTE once the relay is gone"


def test_criterion_2_distance_exactness(batch200):
    report, elapsed = batch200
    with criterion(2, "distance search equals the exhaustive optimum", budget=30.0) as info:
        info["elapsed"] = elapsed
        assert report.scenarios == 200
        assert report.connected_pairs > 0
        check = report.checks[Metric.DISTANCE]
        assert check.match_rate == 1.0
        assert check.worst_gap == 0.0
        info["detail"] = (
            f"{check.matched}/{check.pairs} pairs matched, "
            f"worst relative gap {check.worst_gap:.1e}"
        )


def test_criterion_3_ratio_metric_report(batch200):
    report, elapsed = batch200
    with criterion(3, "ratio-metric agreement measured against the oracle", budget=60.0) as info:
        info["elapsed"] = elapsed
        check = report.checks[Metric.BANDWIDTH]
        assert check.pairs == report.connected_pairs
        # the rate is reported, not promised
        assert 0.0 <= check.match_rate <= 1.0
        info["detail"] = (
            f"match rate {check.match_rate:.1%} ({check.matched}/{check.pairs}), "
            f"worst relative gap {check.worst_gap:.3f}"
        )


def test_criterion_4_sweep_bandwidth_ordering(tmp_path, capsys):
    with criterion(4, "ratio metric lifts mean route bandwidth", budget=10.0) as info:
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--rounds", "30", "--seed", "100", "--csv", str(out)])
        capsys.readouterr()
        assert rc == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 60

        means = {}
        for name in ("distance", "bandwidth"):
            found = [float(r["avg_bandwidth"]) for r in rows
                     if r["metric"] == name and r["found"] == "true"]
            assert found, f"no routed rounds for {name}"
            means[name] = sum(found) / len(found)
        assert means["bandwidth"] >= means["distance"]

        # the average bandwidth carries no per-round guarantee, but wherever
        # both search routes are exact the ratio route's p cannot be higher
        # (the distance route is one of its candidates) and its bandwidth sum
        # D / p cannot be lower (it is no shorter). The oracle certifies rounds
        # only up to ORACLE_MAX_VEHICLES, so this clause reruns the sweep on
        # 10-vehicle fleets
        small = ["--vehicles", "10", "--area", "500", "500"]
        assert cli.main(["sweep", "--rounds", "30", "--seed", "100", *small, "--csv", str(out)]) == 0
        capsys.readouterr()
        template = GenSpec(seed=0, vehicle_count=10, area=(500.0, 500.0),
                           comm_range=200.0, radios_per_vehicle=1,
                           frequency_pool=(1,), bandwidth_range=(2.0, 10.0))
        assert template.vehicle_count <= ORACLE_MAX_VEHICLES
        checked = 0
        for r in csv.DictReader(out.read_text().splitlines()):
            if r["metric"] != "distance" or r["found"] != "true":
                continue
            scenario = generate_scenario(template._replace(seed=int(r["seed"])))
            graph = build_link_graph(scenario)
            src, dst = lowest_connected_pair(graph)
            optima = best_routes_from(graph, src)[dst]
            routes = {m: astar(scenario, graph, src, dst, m) for m in Metric}
            assert f"{routes[Metric.DISTANCE].stats.total_distance:.4f}" == r["total_distance"]
            if all(abs(routes[m].stats.cost(m) - optima[m].cost) <= 1e-9 for m in Metric):
                checked += 1
                dist, ratio = routes[Metric.DISTANCE], routes[Metric.BANDWIDTH]
                assert ratio.stats.p_value <= dist.stats.p_value
                assert (sum(hop.bandwidth for hop in ratio.hops)
                        >= sum(hop.bandwidth for hop in dist.hops))
        assert checked >= 1
        info["detail"] = (
            f"mean avg_bandwidth {means['bandwidth']:.4f} (ratio) vs "
            f"{means['distance']:.4f} (distance); {checked} oracle-certified rounds"
        )


def collapse_channels(scenario: Scenario) -> Scenario:
    """Same fleet with every radio retuned to one shared channel."""
    vehicles = tuple(
        Vehicle(
            v.vehicle_id,
            v.position,
            tuple(Radio(r.radio_id, 1, r.bandwidth) for r in v.radios),
        )
        for v in scenario.vehicles
    )
    return Scenario(scenario.area, scenario.comm_range, vehicles)


def test_criterion_5_channel_constraints_change_routes():
    with criterion(5, "channel constraints reshape the search", budget=30.0) as info:
        template = GenSpec(seed=0, vehicle_count=30, area=(1000.0, 1000.0),
                           comm_range=200.0, radios_per_vehicle=2,
                           frequency_pool=(1, 2, 3), bandwidth_range=(2.0, 10.0))
        differing = 0
        compared = 0
        for i in range(20):
            constrained = generate_scenario(
                GenSpec(seed=7000 + i, vehicle_count=template.vehicle_count,
                        area=template.area, comm_range=template.comm_range,
                        radios_per_vehicle=2, frequency_pool=(1, 2, 3),
                        bandwidth_range=(2.0, 10.0)))
            graph = build_link_graph(constrained)
            pair = lowest_connected_pair(graph)
            if pair is None:
                continue
            src, dst = pair

            collapsed = collapse_channels(constrained)
            collapsed_graph = build_link_graph(collapsed)

            for metric in (Metric.DISTANCE, Metric.BANDWIDTH):
                route = astar(constrained, graph, src, dst, metric)
                assert route is not None
                assert_route_feasible(constrained, graph, route)

            # collapsing only ever adds links, so the pair stays connected
            strict = astar(constrained, graph, src, dst, Metric.DISTANCE)
            free = astar(collapsed, collapsed_graph, src, dst, Metric.DISTANCE)
            assert free is not None
            assert_route_feasible(collapsed, collapsed_graph, free)
            compared += 1
            if strict.vehicle_sequence != free.vehicle_sequence:
                differing += 1

        assert compared >= 15
        assert differing >= 1
        info["detail"] = (
            f"routes differ on {differing}/{compared} seeds; "
            "every route passed per-hop channel feasibility"
        )


def test_criterion_6_property_bundle(k4):
    with criterion(6, "structural property bundle", budget=10.0) as info:
        template = GenSpec(seed=0, vehicle_count=9, area=(400.0, 400.0),
                           comm_range=150.0, radios_per_vehicle=2,
                           frequency_pool=(1, 2, 3), bandwidth_range=(2.0, 10.0))

        # save/load round-trip and generator determinism
        for seed in range(1, 6):
            spec = GenSpec(seed=seed, vehicle_count=9, area=template.area,
                           comm_range=template.comm_range, radios_per_vehicle=2,
                           frequency_pool=(1, 2, 3), bandwidth_range=(2.0, 10.0))
            s = generate_scenario(spec)
            assert load_scenario(save_scenario(s)) == s
            assert generate_scenario(spec) == s
        assert save_scenario(generate_scenario(template)) != save_scenario(
            generate_scenario(
                GenSpec(seed=1, vehicle_count=9, area=template.area,
                        comm_range=template.comm_range, radios_per_vehicle=2,
                        frequency_pool=(1, 2, 3), bandwidth_range=(2.0, 10.0))))

        # link symmetry and communication-threshold monotonicity
        for seed in range(1, 6):
            base = generate_scenario(
                GenSpec(seed=seed, vehicle_count=9, area=template.area,
                        comm_range=100.0, radios_per_vehicle=2,
                        frequency_pool=(1, 2, 3), bandwidth_range=(2.0, 10.0)))
            near = build_link_graph(base)
            for a in near.vehicle_ids:
                for link in near.neighbors(a):
                    back = find_link(near, link.to_vehicle, a)
                    assert back is not None and back.distance == link.distance
            wide = build_link_graph(Scenario(base.area, 180.0, base.vehicles))
            near_edges = {(a, l.to_vehicle) for a in near.vehicle_ids
                          for l in near.neighbors(a)}
            wide_edges = {(a, l.to_vehicle) for a in wide.vehicle_ids
                          for l in wide.neighbors(a)}
            assert near_edges <= wide_edges

        # scaling every bandwidth by one factor cannot move the ratio argmin
        for seed in range(1, 7):
            s = generate_scenario(
                GenSpec(seed=seed, vehicle_count=8, area=(500.0, 500.0),
                        comm_range=200.0, radios_per_vehicle=1,
                        frequency_pool=(1,), bandwidth_range=(2.0, 10.0)))
            scaled = Scenario(s.area, s.comm_range, tuple(
                Vehicle(v.vehicle_id, v.position,
                        tuple(Radio(r.radio_id, r.frequency, r.bandwidth * 4.0)
                              for r in v.radios))
                for v in s.vehicles))
            g, sg = build_link_graph(s), build_link_graph(scaled)
            for source in g.vehicle_ids:
                plain = best_routes_from(g, source)
                boosted = best_routes_from(sg, source)
                assert plain.keys() == boosted.keys()
                for dest in plain:
                    assert (plain[dest][Metric.BANDWIDTH].vehicle_sequence
                            == boosted[dest][Metric.BANDWIDTH].vehicle_sequence)

        # complete 4-vehicle graph: exactly 5 simple opposite-corner paths
        kg = build_link_graph(k4)
        assert len(naive_simple_paths(kg, 1, 4, 3)) == 5

        info["detail"] = ("round-trip, determinism, symmetry, threshold monotonicity, "
                          "scale-invariant argmin, K4 path count")
