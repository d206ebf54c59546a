import dataclasses
import json
import math

import pytest
from hypothesis import given, strategies as st

from freqroute import (
    GenSpec,
    Radio,
    Scenario,
    ScenarioFormatError,
    ScenarioValidationError,
    Vehicle,
    generate_scenario,
    load_scenario,
    save_scenario,
    validate_scenario,
)
from conftest import make_vehicle


def small_spec(**overrides):
    base = dict(
        seed=1,
        vehicle_count=5,
        area=(500.0, 500.0),
        comm_range=200.0,
        radios_per_vehicle=1,
        frequency_pool=(1,),
        bandwidth_range=(2.0, 10.0),
    )
    base.update(overrides)
    return GenSpec(**base)


# --- model basics ----------------------------------------------------------


def test_vehicle_lookup(bridge):
    assert bridge.vehicle(3).position == (150.0, 0.0)
    assert 3 in bridge
    assert 99 not in bridge
    with pytest.raises(KeyError, match="unknown vehicle id: 99"):
        bridge.vehicle(99)


def test_radio_lookup(bridge):
    assert bridge.vehicle(1).radio(2).frequency == 2
    with pytest.raises(KeyError):
        bridge.vehicle(1).radio(7)


def test_vehicle_ids_order(bridge):
    assert bridge.vehicle_ids == (1, 2, 3)


# --- validate_scenario -----------------------------------------------------


def test_valid_scenario_has_no_violations(bridge, diamond):
    assert validate_scenario(bridge) == []
    assert validate_scenario(diamond) == []


def test_duplicate_vehicle_id_reported():
    s = Scenario(
        (100.0, 100.0), 50.0,
        (make_vehicle(4, 0, 0, [(1, 1, 1.0)]), make_vehicle(4, 1, 1, [(1, 1, 1.0)])),
    )
    assert any("duplicate vehicle_id 4" in p for p in validate_scenario(s))


def test_empty_radio_list_reported():
    s = Scenario((100.0, 100.0), 50.0, (Vehicle(1, (0.0, 0.0), ()),))
    assert any("empty radio list" in p for p in validate_scenario(s))


def test_nonpositive_bandwidth_reported():
    s = Scenario((100.0, 100.0), 50.0, (make_vehicle(1, 0, 0, [(1, 1, 0.0)]),))
    assert validate_scenario(s) == ["vehicle 1 radio 1: bw must be > 0, got 0.0"]
    s = Scenario((100.0, 100.0), 50.0, (make_vehicle(1, 0, 0, [(1, 1, -3.0)]),))
    assert validate_scenario(s) == ["vehicle 1 radio 1: bw must be > 0, got -3.0"]


def test_position_outside_area_reported():
    s = Scenario((100.0, 100.0), 50.0, (make_vehicle(1, 150, 0, [(1, 1, 1.0)]),))
    assert any("outside area" in p for p in validate_scenario(s))
    # on the boundary is fine
    s = Scenario((100.0, 100.0), 50.0, (make_vehicle(1, 100, 100, [(1, 1, 1.0)]),))
    assert validate_scenario(s) == []


def test_duplicate_radio_id_reported():
    s = Scenario(
        (100.0, 100.0), 50.0,
        (make_vehicle(1, 0, 0, [(2, 1, 1.0), (2, 2, 1.0)]),),
    )
    assert any("duplicate radio_id 2" in p for p in validate_scenario(s))


def test_nonpositive_area_and_range_reported():
    s = Scenario((0.0, 100.0), 50.0, (make_vehicle(1, 0, 0, [(1, 1, 1.0)]),))
    assert any("area" in p for p in validate_scenario(s))
    s = Scenario((100.0, 100.0), 0.0, (make_vehicle(1, 0, 0, [(1, 1, 1.0)]),))
    assert any("comm_range" in p for p in validate_scenario(s))


def test_all_violations_collected():
    s = Scenario(
        (100.0, 100.0), -1.0,
        (
            make_vehicle(1, 500, 0, [(1, 1, -1.0)]),
            Vehicle(1, (0.0, 0.0), ()),
        ),
    )
    problems = validate_scenario(s)
    assert len(problems) >= 4  # range, position, bandwidth, duplicate id, empty radios


def finite_doc():
    return {
        "area": {"width": 100.0, "height": 100.0},
        "comm_range": 50.0,
        "vehicles": [
            {"id": 1, "x": 0.0, "y": 0.0, "radios": [{"id": 1, "freq": 1, "bw": 2.0}]},
            {"id": 2, "x": 10.0, "y": 0.0, "radios": [{"id": 1, "freq": 1, "bw": 2.0}]},
        ],
    }


@pytest.mark.parametrize(
    "path, named",
    [
        (("area", "width"), "area.width"),
        (("area", "height"), "area.height"),
        (("comm_range",), "comm_range"),
        (("vehicles", 0, "x"), "vehicle 1: x"),
        (("vehicles", 1, "y"), "vehicle 2: y"),
        (("vehicles", 1, "radios", 0, "bw"), "vehicle 2 radio 1: bw"),
    ],
    ids=["width", "height", "comm_range", "x", "y", "bw"],
)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_number_rejected_naming_field(path, named, value):
    doc = finite_doc()
    *parents, leaf = path
    target = doc
    for key in parents:
        target = target[key]
    target[leaf] = value
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(json.dumps(doc))  # writes Infinity / -Infinity / NaN
    assert f"{named} must be finite, got {value}" in exc.value.violations


def test_overflowing_bandwidth_sum_rejected_naming_field():
    # every bw is finite, but a route over the chain receives 2e308 kb/s;
    # the sum of each vehicle's largest bw bounds any route's sum
    doc = finite_doc()
    doc["vehicles"] = [
        {"id": vid, "x": x, "y": 0.0, "radios": [{"id": 1, "freq": 1, "bw": 1e308}]}
        for vid, x in ((1, 0.0), (2, 50.0), (3, 100.0))
    ]
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(json.dumps(doc))
    assert exc.value.violations == ["bw: each vehicle's largest bw must sum to a finite total, got inf"]
    # only each vehicle's largest bw counts (all three radios below sum to
    # inf, the two largest do not), and an invalid bw is reported once, as itself
    doc["vehicles"] = doc["vehicles"][:2]
    doc["vehicles"][0]["radios"] = [{"id": 1, "freq": 1, "bw": 8e307}, {"id": 2, "freq": 2, "bw": 8e307}]
    doc["vehicles"][1]["radios"] = [{"id": 1, "freq": 1, "bw": 8e307}]
    assert len(load_scenario(json.dumps(doc)).vehicles) == 2
    doc["vehicles"][1]["radios"][0]["bw"] = math.inf
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(json.dumps(doc))
    assert exc.value.violations == ["vehicle 2 radio 1: bw must be finite, got inf"]


def test_infinite_area_and_position_rejected():
    # with an infinite area an infinite position is not outside it, yet the
    # link it makes has a NaN distance; both fields are named
    doc = finite_doc()
    doc["area"]["width"] = math.inf
    doc["vehicles"][1]["x"] = math.inf
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(json.dumps(doc))
    assert exc.value.violations == [
        "area.width must be finite, got inf",
        "vehicle 2: x must be finite, got inf",
    ]


# --- generate_scenario -----------------------------------------------------


def test_generation_is_deterministic():
    a = generate_scenario(small_spec(seed=42))
    b = generate_scenario(small_spec(seed=42))
    assert a == b
    assert save_scenario(a) == save_scenario(b)


def test_different_seeds_differ():
    a = generate_scenario(small_spec(seed=42))
    b = generate_scenario(small_spec(seed=43))
    assert any(
        va.position != vb.position for va, vb in zip(a.vehicles, b.vehicles)
    )


def test_generated_structure():
    spec = small_spec(
        vehicle_count=12, radios_per_vehicle=3, frequency_pool=(5, 9), seed=3
    )
    s = generate_scenario(spec)
    assert s.area == (500.0, 500.0)
    assert s.comm_range == 200.0
    assert [v.vehicle_id for v in s.vehicles] == list(range(1, 13))
    for v in s.vehicles:
        assert 0 <= v.position[0] <= 500 and 0 <= v.position[1] <= 500
        assert [r.radio_id for r in v.radios] == [1, 2, 3]
        for r in v.radios:
            assert r.frequency in (5, 9)
            assert 2.0 <= r.bandwidth <= 10.0
            assert round(r.bandwidth, 1) == r.bandwidth
    assert validate_scenario(s) == []


def test_generated_bandwidth_never_rounds_to_zero():
    s = generate_scenario(small_spec(seed=11, bandwidth_range=(0.01, 0.04)))
    assert all(r.bandwidth == 0.1 for v in s.vehicles for r in v.radios)
    assert validate_scenario(s) == []


@pytest.mark.parametrize(
    "overrides",
    [
        {"vehicle_count": 0},
        {"radios_per_vehicle": 0},
        {"frequency_pool": ()},
        {"bandwidth_range": (0.0, 5.0)},
        {"bandwidth_range": (6.0, 5.0)},
        {"area": (0.0, 100.0)},
        {"comm_range": 0.0},
    ],
)
def test_bad_genspec_rejected(overrides):
    with pytest.raises(ValueError):
        generate_scenario(small_spec(**overrides))


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "overrides, named",
    [
        (lambda v: {"area": (v, 100.0)}, "area.width"),
        (lambda v: {"area": (100.0, v)}, "area.height"),
        (lambda v: {"comm_range": v}, "comm_range"),
        (lambda v: {"bandwidth_range": (v, 5.0)}, "bandwidth_range.min"),
        (lambda v: {"bandwidth_range": (2.0, v)}, "bandwidth_range.max"),
    ],
    ids=["width", "height", "comm_range", "bw-min", "bw-max"],
)
def test_non_finite_genspec_rejected_naming_field(overrides, named, value):
    # the same check and wording as validate_scenario's for a loaded document
    with pytest.raises(ValueError, match=f"^{named} must be finite, got {value}$"):
        generate_scenario(small_spec(**overrides(value)))


# --- persistence -----------------------------------------------------------


def test_round_trip_identity(bridge, diamond):
    for s in (bridge, diamond):
        assert load_scenario(save_scenario(s)) == s


def test_round_trip_generated_multi_radio():
    s = generate_scenario(
        small_spec(vehicle_count=9, radios_per_vehicle=2, frequency_pool=(1, 2, 3))
    )
    assert load_scenario(save_scenario(s)) == s


def test_document_layout(diamond):
    doc = json.loads(save_scenario(diamond))
    assert set(doc) == {"area", "comm_range", "vehicles"}
    assert doc["area"] == {"width": 1000.0, "height": 1000.0}
    v = doc["vehicles"][1]
    assert v["id"] == 2 and v["x"] == 150.0
    assert v["radios"] == [{"id": 1, "freq": 1, "bw": 2.0}]


def test_load_missing_field():
    doc = {"area": {"width": 10, "height": 10}, "vehicles": []}
    with pytest.raises(ScenarioFormatError, match="comm_range"):
        load_scenario(json.dumps(doc))


def test_load_unknown_field():
    doc = {
        "area": {"width": 10, "height": 10},
        "comm_range": 5,
        "vehicles": [],
        "extra": 1,
    }
    with pytest.raises(ScenarioFormatError, match="unknown field 'extra'"):
        load_scenario(json.dumps(doc))


def test_load_unknown_nested_field():
    doc = {
        "area": {"width": 10, "height": 10},
        "comm_range": 5,
        "vehicles": [
            {"id": 1, "x": 0, "y": 0, "radios": [{"id": 1, "freq": 1, "bw": 2, "power": 9}]}
        ],
    }
    with pytest.raises(ScenarioFormatError, match=r"vehicles\[0\].radios\[0\]: unknown field 'power'"):
        load_scenario(json.dumps(doc))


def test_load_wrong_types():
    base = {
        "area": {"width": 10, "height": 10},
        "comm_range": 5,
        "vehicles": [{"id": 1, "x": 0, "y": 0, "radios": [{"id": 1, "freq": 1, "bw": 2}]}],
    }
    bad = json.loads(json.dumps(base))
    bad["vehicles"][0]["x"] = "zero"
    with pytest.raises(ScenarioFormatError, match=r"vehicles\[0\].x"):
        load_scenario(json.dumps(bad))
    bad = json.loads(json.dumps(base))
    bad["vehicles"][0]["id"] = 1.5
    with pytest.raises(ScenarioFormatError, match="expected an integer"):
        load_scenario(json.dumps(bad))
    bad = json.loads(json.dumps(base))
    bad["vehicles"] = "nope"
    with pytest.raises(ScenarioFormatError, match="vehicles: expected a list"):
        load_scenario(json.dumps(bad))
    bad = json.loads(json.dumps(base))
    bad["area"] = 5
    with pytest.raises(ScenarioFormatError, match="^area: expected an object$"):
        load_scenario(json.dumps(bad))
    bad = json.loads(json.dumps(base))
    bad["vehicles"][0]["radios"] = {}
    with pytest.raises(ScenarioFormatError, match=r"^vehicles\[0\]\.radios: expected a list$"):
        load_scenario(json.dumps(bad))
    bad = json.loads(json.dumps(base))
    bad["comm_range"] = True
    with pytest.raises(ScenarioFormatError, match="comm_range: expected a number"):
        load_scenario(json.dumps(bad))


def test_load_malformed_json():
    with pytest.raises(ScenarioFormatError, match="invalid JSON"):
        load_scenario("{not json")


def test_load_rejects_invalid_scenario():
    doc = {
        "area": {"width": 10, "height": 10},
        "comm_range": 5,
        "vehicles": [
            {"id": 1, "x": 0, "y": 0, "radios": [{"id": 1, "freq": 1, "bw": 0}]}
        ],
    }
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(json.dumps(doc))
    assert exc.value.violations == ["vehicle 1 radio 1: bw must be > 0, got 0.0"]


def test_integer_coordinates_load_as_floats():
    doc = {
        "area": {"width": 10, "height": 10},
        "comm_range": 5,
        "vehicles": [{"id": 1, "x": 3, "y": 4, "radios": [{"id": 1, "freq": 1, "bw": 2}]}],
    }
    s = load_scenario(json.dumps(doc))
    assert s.vehicles[0].position == (3.0, 4.0)
    # a second trip through the format is the identity
    assert load_scenario(save_scenario(s)) == s


@given(
    seed=st.integers(0, 2**32),
    count=st.integers(1, 8),
    radios=st.integers(1, 3),
    pool=st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True),
)
def test_round_trip_identity_generated(seed, count, radios, pool):
    s = generate_scenario(
        small_spec(
            seed=seed,
            vehicle_count=count,
            radios_per_vehicle=radios,
            frequency_pool=tuple(pool),
        )
    )
    assert load_scenario(save_scenario(s)) == s


@given(seed=st.integers(0, 2**32))
def test_generator_determinism_property(seed):
    spec = small_spec(seed=seed, vehicle_count=6, radios_per_vehicle=2,
                      frequency_pool=(1, 2))
    assert generate_scenario(spec) == generate_scenario(spec)


def test_genspec_is_frozen():
    spec = small_spec()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.seed = 2


def test_scenario_accepts_lists():
    s = Scenario([100.0, 100.0], 50.0, [make_vehicle(1, 0, 0, [(1, 1, 1.0)])])
    assert isinstance(s.vehicles, tuple)
    assert isinstance(s.area, tuple)
    assert s == Scenario((100.0, 100.0), 50.0, (make_vehicle(1, 0, 0, [(1, 1, 1.0)]),))
