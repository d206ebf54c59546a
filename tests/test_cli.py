import os
import subprocess
import sys
from pathlib import Path

import pytest

import freqroute
from freqroute import Scenario, cli, load_scenario, save_scenario
from conftest import COST_OVERFLOW, UNPARSABLE_JSON, make_vehicle


def write_scenario(tmp_path, scenario, name="s.json"):
    path = tmp_path / name
    path.write_text(save_scenario(scenario))
    return str(path)


def disconnected_pair():
    return Scenario(
        (1000.0, 1000.0), 10.0,
        (make_vehicle(1, 0, 0, [(1, 1, 1.0)]), make_vehicle(2, 900, 900, [(1, 1, 1.0)])),
    )


# --- gen -------------------------------------------------------------------


def test_gen_default_flags(tmp_path, capsys):
    out = tmp_path / "net.json"
    assert cli.main(["gen", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out} (30 vehicles)\n"
    s = load_scenario(out.read_text())
    assert len(s.vehicles) == 30
    assert s.area == (1000.0, 1000.0) and s.comm_range == 200.0
    for v in s.vehicles:
        assert len(v.radios) == 1
        assert v.radios[0].frequency == 1
        assert 2.0 <= v.radios[0].bandwidth <= 10.0


def test_gen_refuses_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "net.json"
    assert cli.main(["gen", "--out", str(out)]) == 0
    first = out.read_bytes()
    capsys.readouterr()
    assert cli.main(["gen", "--out", str(out)]) == 2
    assert "pass --force to overwrite" in capsys.readouterr().err
    assert out.read_bytes() == first
    assert cli.main(["gen", "--out", str(out), "--force"]) == 0
    assert out.read_bytes() == first


def test_gen_custom_flags(tmp_path):
    out = tmp_path / "net.json"
    rc = cli.main([
        "gen", "--out", str(out), "--vehicles", "5", "--radios", "2",
        "--freqs", "3,5", "--bw", "1", "2", "--area", "400", "400",
        "--range", "150", "--seed", "9",
    ])
    assert rc == 0
    s = load_scenario(out.read_text())
    assert len(s.vehicles) == 5
    assert s.comm_range == 150.0 and s.area == (400.0, 400.0)
    for v in s.vehicles:
        assert len(v.radios) == 2
        for r in v.radios:
            assert r.frequency in (3, 5)
            assert 1.0 <= r.bandwidth <= 2.0


def test_gen_rejects_nonpositive_counts(tmp_path, capsys):
    out = tmp_path / "x.json"
    for flags, message in (
        (["--vehicles", "0"], "argument --vehicles: expected a positive integer, got 0"),
        (["--vehicles", "x"], "argument --vehicles: expected an integer, got 'x'"),
        (["--area", "400", "x"], "argument --area: expected a number, got 'x'"),
        (["--freqs", "1,a"], "argument --freqs: expected comma-separated integers, got '1,a'"),
        (["--freqs", ","], "argument --freqs: frequency list must not be empty"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "--out", str(out)] + flags)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"freqroute gen: error: {message}\n")
        assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--area", "inf", "inf"], ["--area", "400", "nan"], ["--range", "inf"], ["--bw", "2", "inf"]],
    ids=["area-inf", "area-nan", "range-inf", "bw-inf"],
)
@pytest.mark.parametrize("command", ["gen", "sweep"])
def test_non_finite_flags_rejected(command, flags, tmp_path, capsys):
    out = tmp_path / "x.json"
    argv = ["gen", "--out", str(out)] if command == "gen" else ["sweep", "--rounds", "2"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + flags)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a finite positive number" in captured.err
    assert not out.exists()


# --- route -----------------------------------------------------------------


def test_route_through_bridge(bridge, tmp_path, capsys):
    path = write_scenario(tmp_path, bridge)
    for metric in ("distance", "bandwidth"):
        assert cli.main(["route", "--scenario", path, "--src", "1", "--dst", "2",
                         "--metric", metric]) == 0
        out = capsys.readouterr().out
        assert out == ("1→3→2\n"
                       "hops=2 total_distance=300.0000 avg_bandwidth=4.0000 p_value=37.5000\n")


def test_route_metric_changes_relay(diamond, tmp_path, capsys):
    path = write_scenario(tmp_path, diamond)
    assert cli.main(["route", "--scenario", path, "--src", "1", "--dst", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1→2→4"
    assert cli.main(["route", "--scenario", path, "--src", "1", "--dst", "4",
                     "--metric", "bandwidth"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1→3→4"


def test_route_reports_no_route(bridge, tmp_path, capsys):
    # without the bridge the endpoints share no channel and are out of range
    stripped = Scenario(bridge.area, bridge.comm_range, bridge.vehicles[:2])
    path = write_scenario(tmp_path, stripped)
    assert cli.main(["route", "--scenario", path, "--src", "1", "--dst", "2"]) == 1
    assert capsys.readouterr().out == "NO ROUTE\n"


def test_route_same_endpoint(bridge, tmp_path, capsys):
    path = write_scenario(tmp_path, bridge)
    assert cli.main(["route", "--scenario", path, "--src", "1", "--dst", "1"]) == 0
    assert capsys.readouterr().out == "1\nhops=0 total_distance=0.0000\n"


def test_route_prints_subnormal_p_value(tmp_path, capsys):
    # p = 1/8e307 is a subnormal float; it is a valid route and prints as 0
    radios = [(1, 1, 8e307)]
    s = Scenario((10.0, 10.0), 5.0, (make_vehicle(1, 0, 0, radios), make_vehicle(2, 1, 0, radios)))
    path = write_scenario(tmp_path, s)
    assert cli.main(["route", "--scenario", path, "--src", "1", "--dst", "2",
                     "--metric", "bandwidth"]) == 0
    out = capsys.readouterr().out
    assert out == f"1→2\nhops=1 total_distance=1.0000 avg_bandwidth={8e307:.4f} p_value=0.0000\n"


def test_route_unknown_vehicle(bridge, tmp_path, capsys):
    path = write_scenario(tmp_path, bridge)
    assert cli.main(["route", "--scenario", path, "--src", "99", "--dst", "2"]) == 2
    assert capsys.readouterr().err == "error: unknown vehicle id: 99\n"


def test_route_missing_file(tmp_path, capsys):
    assert cli.main(["route", "--scenario", str(tmp_path / "gone.json"),
                     "--src", "1", "--dst", "2"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_route_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["route", "--scenario", str(bad), "--src", "1", "--dst", "2"]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    bad.write_bytes(b"\xff{")
    assert cli.main(["route", "--scenario", str(bad), "--src", "1", "--dst", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


@pytest.mark.parametrize("text", UNPARSABLE_JSON.values(), ids=UNPARSABLE_JSON)
def test_route_unparsable_json_is_invalid_input(text, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert cli.main(["route", "--scenario", str(bad), "--src", "1", "--dst", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid JSON: ")


def test_route_rejects_invalid_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"area": {"width": 100, "height": 100}, "comm_range": 50, "vehicles": ['
        '{"id": 1, "x": 0, "y": 0, "radios": [{"id": 1, "freq": 1, "bw": -3}]}]}'
    )
    assert cli.main(["route", "--scenario", str(bad), "--src", "1", "--dst", "1"]) == 2
    assert capsys.readouterr().err == "error: vehicle 1 radio 1: bw must be > 0, got -3.0\n"


def test_route_rejects_infinite_numbers(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"area": {"width": Infinity, "height": 100}, "comm_range": 50, "vehicles": ['
        '{"id": 1, "x": 0, "y": 0, "radios": [{"id": 1, "freq": 1, "bw": 2}]},'
        '{"id": 2, "x": Infinity, "y": 0, "radios": [{"id": 1, "freq": 1, "bw": 2}]}]}'
    )
    assert cli.main(["route", "--scenario", str(bad), "--src", "1", "--dst", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: area.width must be finite, got inf; vehicle 2: x must be finite, got inf\n"
    )


@pytest.mark.parametrize("scenario, violation", COST_OVERFLOW.values(), ids=COST_OVERFLOW)
@pytest.mark.parametrize("command", [
    ["route", "--src", "1", "--dst", "3", "--metric", "bandwidth"], ["route", "--src", "1", "--dst", "3"],
    ["validate"],
], ids=["route-bandwidth", "route-distance", "validate"])
def test_overflowing_cost_bound_is_invalid_input(command, scenario, violation, tmp_path, capsys):
    # these used to print p_value=inf or total_distance=inf, or a distance
    # match below 100%
    path = write_scenario(tmp_path, scenario)
    assert cli.main([*command, "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {violation}\n"


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--area", "1e308", "1e308", "--range", "1e308", "--rounds", "5"],
     "got 30 * 1.4142135623730951e+308 / 0.1"),
    (["validate", "--batch", "30", "--area", "1.7e308", "1.7e308", "--range", "1.7e308",
      "--vehicles", "8", "--vehicles-max", "10"],
     "got 8 * inf / 0.1"),
], ids=["sweep", "validate"])
def test_huge_generation_sizes_are_invalid_input(argv, message, tmp_path, capsys):
    # the sweep died in summarize_sweep with an OverflowError, exit 1; the
    # batch reported a distance match below 100%
    csv = tmp_path / "rows.csv"
    if argv[0] == "sweep":
        argv = [*argv, "--csv", str(csv)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: area, bw: vehicle count * area diagonal / smallest bw must be finite, {message}\n"
    )
    assert not csv.exists()


@pytest.mark.parametrize("command", [
    ["route", "--src", "1", "--dst", "2"], ["compare", "--src", "1", "--dst", "2"], ["validate"],
], ids=["route", "compare", "validate"])
def test_integer_too_large_for_a_float_is_invalid_input(command, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"area": {"width": 100, "height": 100}, "comm_range": 50, "vehicles": ['
        '{"id": 1, "x": 1' + "0" * 400 + ', "y": 0, "radios": [{"id": 1, "freq": 1, "bw": 2}]}]}'
    )
    assert cli.main([*command, "--scenario", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vehicles[0].x: number out of float range\n"


# --- compare ---------------------------------------------------------------


def test_compare_table(diamond, tmp_path, capsys):
    path = write_scenario(tmp_path, diamond)
    assert cli.main(["compare", "--scenario", path, "--src", "1", "--dst", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["metric", "route", "hops", "total_distance",
                                "avg_bandwidth", "p_value"]
    assert lines[1].split() == ["distance", "1→2→4", "2", "300.0000", "6.0000", "25.0000"]
    assert lines[2].split() == ["bandwidth", "1→3→4", "2", "316.2278", "10.0000", "15.8114"]
    assert lines[3] == "delta: avg_bandwidth +4.0000, total_distance +16.2278"
    assert lines[4] == "check: p(bandwidth) <= p(distance): ok"


def test_compare_table_widens_route_column_for_long_routes(tmp_path, capsys):
    # 14 vehicles 100 m apart in a line, range 150: the only route is 1→2→…→14, 32 characters
    line = Scenario((1400.0, 10.0), 150.0,
                    tuple(make_vehicle(i, 100.0 * (i - 1), 0, [(1, 1, 1.0)]) for i in range(1, 15)))
    path = write_scenario(tmp_path, line)
    assert cli.main(["compare", "--scenario", path, "--src", "1", "--dst", "14"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()[:3]
    hops_at = header.index("hops")
    for row in rows:
        assert row.split()[1] == "→".join(map(str, range(1, 15)))
        assert row[hops_at - 1] == " " and row[hops_at:].split()[0] == "13"


def test_compare_table_widens_numeric_columns_for_large_figures(tmp_path, capsys):
    # two vehicles 1e15 m apart at 1e12 kb/s: every figure is wider than its column's default
    far = Scenario((2e15, 10.0), 1e15, (make_vehicle(1, 0, 0, [(1, 1, 1e12)]),
                                         make_vehicle(2, 1e15, 0, [(1, 1, 1e12)])))
    path = write_scenario(tmp_path, far)
    assert cli.main(["compare", "--scenario", path, "--src", "1", "--dst", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()[:3]
    p_at = header.index("p_value")
    for row in rows:
        assert row.split()[2:] == ["1", "1000000000000000.0000", "1000000000000.0000", "1000.0000"]
        assert row[p_at - 1] == " " and row[p_at:] == "1000.0000"


def test_compare_check_line_violated(tmp_path, capsys):
    # close-once ratio search: its route can end above the shortest route's p
    path = str(tmp_path / "w.json")
    assert cli.main(["gen", "--out", path, "--seed", "3001", "--vehicles", "8",
                     "--area", "500", "500"]) == 0
    capsys.readouterr()
    assert cli.main(["compare", "--scenario", path, "--src", "1", "--dst", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[:2] == ["distance", "1→5→7→2"]
    assert lines[1].split()[-1] == "19.6783"
    assert lines[2].split()[:2] == ["bandwidth", "1→4→8→5→7→2"]
    assert lines[2].split()[-1] == "20.7289"
    assert lines[3:] == ["delta: avg_bandwidth +0.0733, total_distance +296.0779",
                         "check: p(bandwidth) <= p(distance): VIOLATED"]


def test_compare_check_line_equal_p(bridge, tmp_path, capsys):
    path = write_scenario(tmp_path, bridge)
    assert cli.main(["compare", "--scenario", path, "--src", "1", "--dst", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[1] == lines[2].split()[1] == "1→3→2"
    assert lines[3:] == ["delta: avg_bandwidth +0.0000, total_distance +0.0000",
                         "check: p(bandwidth) <= p(distance): ok"]


def test_compare_csv(diamond, tmp_path):
    path = write_scenario(tmp_path, diamond)
    out = tmp_path / "cmp.csv"
    assert cli.main(["compare", "--scenario", path, "--src", "1", "--dst", "4",
                     "--csv", str(out)]) == 0
    assert out.read_text() == (
        "metric,found,hops,total_distance,avg_bandwidth,p_value\n"
        "distance,true,2,300.0000,6.0000,25.0000\n"
        "bandwidth,true,2,316.2278,10.0000,15.8114\n"
    )


def test_compare_no_route(tmp_path, capsys):
    path = write_scenario(tmp_path, disconnected_pair())
    assert cli.main(["compare", "--scenario", path, "--src", "1", "--dst", "2"]) == 1
    assert capsys.readouterr().out == "NO ROUTE\n"


def test_compare_csv_no_route_replaces_earlier_rows(tmp_path, capsys):
    # 1 and 2 are linked, 3 is out of range: the NO ROUTE query's rows replace the found ones
    path = write_scenario(tmp_path, Scenario(
        (1000.0, 1000.0), 100.0,
        tuple(make_vehicle(vid, x, 0, [(1, 1, 4.0)]) for vid, x in ((1, 0), (2, 50), (3, 900))),
    ))
    out = tmp_path / "cmp.csv"
    assert cli.main(["compare", "--scenario", path, "--src", "1", "--dst", "2",
                     "--csv", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "distance,true,1,50.0000,4.0000,12.5000"
    capsys.readouterr()
    assert cli.main(["compare", "--scenario", path, "--src", "1", "--dst", "3",
                     "--csv", str(out)]) == 1
    assert capsys.readouterr().out == "NO ROUTE\n"
    assert out.read_text() == (
        "metric,found,hops,total_distance,avg_bandwidth,p_value\n"
        "distance,false,,,,\n"
        "bandwidth,false,,,,\n"
    )


def test_compare_same_endpoint_rejected_before_output(diamond, tmp_path, capsys):
    path = write_scenario(tmp_path, diamond)
    assert cli.main(["compare", "--scenario", path, "--src", "3", "--dst", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: source and dest must differ\n"


# --- sweep -----------------------------------------------------------------

SWEEP_FLAGS = ["--vehicles", "8", "--area", "400", "400", "--seed", "50"]


def test_sweep_stdout(capsys):
    assert cli.main(["sweep", "--rounds", "2"] + SWEEP_FLAGS) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "round,seed,metric,found,hops,total_distance,avg_bandwidth,p_value"
    rows = [line.split(",") for line in lines[1:5]]
    assert [r[0] for r in rows] == ["1", "1", "2", "2"]
    assert [r[1] for r in rows] == ["51", "51", "52", "52"]
    assert [r[2] for r in rows] == ["distance", "bandwidth"] * 2
    assert lines[5].startswith("distance: rounds_with_route=")
    assert lines[6].startswith("bandwidth: rounds_with_route=")
    # two vehicles far out of range: no round has a route
    assert cli.main(["sweep", "--rounds", "1", "--vehicles", "2", "--area", "5000", "5000",
                     "--range", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "1,1,distance,false,,,,",
        "1,1,bandwidth,false,,,,",
        "distance: rounds_with_route=0",
        "bandwidth: rounds_with_route=0",
    ]


def test_sweep_csv_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sweep", "--rounds", "3", "--csv", str(a)] + SWEEP_FLAGS) == 0
    assert f"wrote {a} (6 rows)" in capsys.readouterr().out
    assert cli.main(["sweep", "--rounds", "3", "--csv", str(b)] + SWEEP_FLAGS) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_fixed_scenario(diamond, tmp_path, capsys):
    path = write_scenario(tmp_path, diamond)
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--scenario", path, "--rounds", "1",
                     "--src", "1", "--dst", "4", "--csv", str(out)]) == 0
    assert out.read_text() == (
        "round,seed,metric,found,hops,total_distance,avg_bandwidth,p_value\n"
        "1,0,distance,true,2,300.0000,6.0000,25.0000\n"
        "1,0,bandwidth,true,2,316.2278,10.0000,15.8114\n"
    )
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[1] == ("distance: rounds_with_route=1 mean_total_distance=300.0000 "
                         "mean_avg_bandwidth=6.0000 mean_p_value=25.0000")
    assert stdout[2] == ("bandwidth: rounds_with_route=1 mean_total_distance=316.2278 "
                         "mean_avg_bandwidth=10.0000 mean_p_value=15.8114")


def test_sweep_src_requires_dst(capsys):
    assert cli.main(["sweep", "--rounds", "1", "--src", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: source and dest must be given together\n"
    # equal endpoints are refused by the first round's query
    assert cli.main(["sweep", "--rounds", "1", "--src", "2", "--dst", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: source and dest must differ\n"


@pytest.mark.parametrize("command, flags", [
    *((command, flags) for command in ("sweep", "validate") for flags in (
        ["--seed", "0"],  # a flag given at its default value counts as given
        ["--vehicles", "500", "--seed", "9", "--radios", "3"],
        ["--range", "150"],
        ["--bw", "2", "10"],
    )),
    ("validate", ["--vehicles-max", "9", "--seed", "4"]),
])
def test_scenario_refuses_generation_flags(command, flags, diamond, tmp_path, capsys):
    path = write_scenario(tmp_path, diamond)
    rounds = ["--rounds", "1"] if command == "sweep" else []
    assert cli.main([command, "--scenario", path, *rounds, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flags[0]} cannot be used with --scenario\n"


@pytest.mark.parametrize("command", ["sweep", "validate"])
def test_empty_scenario_path_is_read_not_ignored(command, capsys):
    # "" names the current directory, so reading it fails like any bad path
    assert cli.main([command, "--scenario", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 21] Is a directory: '.'\n"


# --- validate --------------------------------------------------------------


def test_validate_fixed_scenario(diamond, tmp_path, capsys):
    path = write_scenario(tmp_path, diamond)
    assert cli.main(["validate", "--scenario", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "scenarios=1 connected_ordered_pairs=12"
    assert lines[1] == "distance   match 12/12 (100.0%) worst_relative_gap 0.000e+00"
    assert lines[2] == "bandwidth  match 10/12 (83.3%) worst_relative_gap 4.415e-01"


def test_validate_batch(capsys):
    assert cli.main(["validate", "--batch", "2", "--vehicles", "4",
                     "--vehicles-max", "5", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("scenarios=2 connected_ordered_pairs=")
    assert "match" in lines[1] and "(100.0%)" in lines[1]


def test_validate_batch_summary(capsys):
    # the exhaustive oracle's verdict on 200 seeded 8-10 vehicle fleets
    assert cli.main(["validate", "--batch", "200", "--seed", "3000", "--vehicles", "8",
                     "--vehicles-max", "10"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "scenarios=200 connected_ordered_pairs=10680",
        "distance   match 10680/10680 (100.0%) worst_relative_gap 0.000e+00",
        "bandwidth  match 3967/10680 (37.1%) worst_relative_gap 2.582e+00",
    ]


def test_validate_rejects_overflowing_bandwidth_sum(tmp_path, capsys):
    # three vehicles 50 m apart at bw 1e308: each bw is finite, a two-hop
    # route's bandwidth sum is not
    path = write_scenario(tmp_path, Scenario(
        (200.0, 200.0), 60.0,
        tuple(make_vehicle(vid, x, 0, [(1, 1, 1e308)]) for vid, x in ((1, 0), (2, 50), (3, 100))),
    ))
    assert cli.main(["validate", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bw: each vehicle's largest bw must sum to a finite total, got inf\n"


def test_validate_refuses_oversized_scenario(tmp_path, capsys):
    path = tmp_path / "big.json"
    assert cli.main(["gen", "--out", str(path), "--vehicles", "11"]) == 0
    capsys.readouterr()
    assert cli.main(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: scenario has 11 vehicles; the oracle bound is 10\n"
    )


def test_validate_requires_a_mode(diamond, tmp_path, capsys):
    path = write_scenario(tmp_path, diamond)
    for flags, message in (
        ([], "one of the arguments --scenario --batch is required"),
        (["--scenario", path, "--batch", "2"], "argument --batch: not allowed with argument --scenario"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate"] + flags)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"freqroute validate: error: {message}\n")


# --- README ----------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    "route --scenario relay.json --src 1 --dst 4 --metric bandwidth",
    "compare --scenario relay.json --src 1 --dst 4",
    "validate --scenario relay.json",
    "sweep --rounds 30 --seed 100 --csv sweep.csv",
])
def test_readme_example_prints_what_it_shows(argv, diamond, tmp_path, monkeypatch, capsys):
    # README's relay.json is the diamond fixture
    monkeypatch.chdir(tmp_path)
    write_scenario(tmp_path, diamond, "relay.json")
    assert cli.main(argv.split()) == 0
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    assert f"$ freqroute {argv}\n{capsys.readouterr().out}" in readme


# --- exit codes ------------------------------------------------------------


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_unwritable_csv_is_invalid_input(command, diamond, tmp_path, capsys):
    path = write_scenario(tmp_path, diamond)
    assert cli.main([command, "--scenario", path, "--src", "1", "--dst", "4",
                     "--csv", str(tmp_path / "missing" / "out.csv")]) == 2
    captured = capsys.readouterr()
    # the file is written before anything is printed
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] No such file or directory")


def test_closed_stdout_exits_141_quietly():
    # a reader that went away before any output: stdout is a pipe with no read end
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(freqroute.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "freqroute.cli", "sweep", "--rounds", "2", "--vehicles", "4"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""
