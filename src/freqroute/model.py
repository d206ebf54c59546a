"""Domain model: radios, vehicles, scenarios, plus generation and JSON persistence."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple


class ScenarioError(Exception):
    """Base class for anything wrong with a scenario document."""


class ScenarioFormatError(ScenarioError):
    """The document does not conform to the scenario schema."""


class ScenarioValidationError(ScenarioError):
    """The document parsed, but the scenario violates model invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class Radio(NamedTuple):
    """A transceiver: the channel it operates on and its bandwidth rating.

    Frequencies are opaque channel identifiers; two radios can talk iff their
    channels compare equal. Bandwidth is in kb/s and must be positive.

    `Radio`, `Vehicle` and `GenSpec` are NamedTuples: each equals the plain
    tuple of its fields, and iterates and orders as that tuple. Fields are
    stored as given, so a `Vehicle` or `GenSpec` built from lists keeps them.
    """

    radio_id: int
    frequency: int
    bandwidth: float


class Vehicle(NamedTuple):
    vehicle_id: int
    position: tuple[float, float]
    radios: tuple[Radio, ...]


@dataclass(frozen=True)
class Scenario:
    """The whole world: area bounds, communication range, and the vehicles.

    Immutable after construction, so a single instance is safe to share
    between concurrent searches.
    """

    area: tuple[float, float]
    comm_range: float
    vehicles: tuple[Vehicle, ...]

    def __post_init__(self):
        object.__setattr__(self, "area", tuple(self.area))
        object.__setattr__(self, "vehicles", tuple(self.vehicles))

    @cached_property
    def _by_id(self) -> dict[int, Vehicle]:
        return {v.vehicle_id: v for v in self.vehicles}

    def vehicle(self, vehicle_id: int) -> Vehicle:
        try:
            return self._by_id[vehicle_id]
        except KeyError:
            raise KeyError(f"unknown vehicle id: {vehicle_id}") from None


def _size_problem(name: str, value: float) -> str | None:
    """Why `value` cannot be the size named `name` (it is not finite, or not > 0), else None."""
    if not math.isfinite(value):
        return f"{name} must be finite, got {value}"
    if not value > 0:
        return f"{name} must be > 0, got {value}"
    return None


def _cost_bound_problem(vehicle_count: int, w: float, h: float, smallest_bw: float) -> str | None:
    """Why costs could overflow on this many vehicles in a w x h area, else None.

    A simple route has at most vehicle_count - 1 hops, each no longer than the
    area's diagonal, and its bandwidth sum is at least the smallest bw. So
    vehicle_count * diagonal / smallest_bw, taken left to right, bounds every
    distance sum, A* estimate and distance/bandwidth ratio; it must be finite.
    """
    diagonal = math.hypot(w, h)
    if math.isfinite(vehicle_count * diagonal / smallest_bw):
        return None
    return (f"area, bw: vehicle count * area diagonal / smallest bw must be finite, "
            f"got {vehicle_count} * {diagonal} / {smallest_bw}")


def validate_scenario(scenario: Scenario) -> list[str]:
    """Collect every invariant violation; an empty list means the scenario is valid.

    Violations are reported as data rather than raised so callers can show all
    of them at once. Checks: finite numbers (each violation names its
    document field), positive area and range, unique vehicle ids, non-empty
    radio lists with unique per-vehicle radio ids, positive bandwidths whose
    per-vehicle maxima have a finite sum, positions inside the area bounds,
    and a finite cost bound (see _cost_bound_problem). These are what keep
    every link distance, route cost, bandwidth sum and ratio finite.
    """
    problems: list[str] = []
    w, h = scenario.area
    sizes = (("area.width", w), ("area.height", h), ("comm_range", scenario.comm_range))
    problems += filter(None, (_size_problem(name, value) for name, value in sizes))
    seen: set[int] = set()
    peak_sum = 0.0
    smallest = math.inf  # the smallest valid bw of all
    for vid, (x, y), radios in scenario.vehicles:
        if vid in seen:
            problems.append(f"duplicate vehicle_id {vid}")
        seen.add(vid)
        unbounded = [
            f"vehicle {vid}: {name} must be finite, got {value}"
            for name, value in (("x", x), ("y", y))
            if not math.isfinite(value)
        ]
        problems += unbounded
        if not unbounded and not (0 <= x <= w and 0 <= y <= h):
            problems.append(f"vehicle {vid}: position ({x}, {y}) outside area {w} x {h}")
        if not radios:
            problems.append(f"vehicle {vid}: empty radio list")
        radio_seen: set[int] = set()
        largest = 0.0  # the vehicle's largest valid bw
        for rid, _, bw in radios:
            if rid in radio_seen:
                problems.append(f"vehicle {vid}: duplicate radio_id {rid}")
            radio_seen.add(rid)
            if not 0 < bw < math.inf:  # _size_problem's test, without a name per radio
                problems.append(_size_problem(f"vehicle {vid} radio {rid}: bw", bw))
            else:
                if bw > largest:
                    largest = bw
                if bw < smallest:
                    smallest = bw
        peak_sum += largest
    # a simple route receives on at most one radio per vehicle, so the sum of
    # each vehicle's largest valid bw bounds every route's bandwidth sum
    if not math.isfinite(peak_sum):
        problems.append(f"bw: each vehicle's largest bw must sum to a finite total, got {peak_sum}")
    # an area side already reported gets no second message
    if 0 < w < math.inf and 0 < h < math.inf:
        problems += filter(None, [_cost_bound_problem(len(scenario.vehicles), w, h, smallest)])
    return problems


class GenSpec(NamedTuple):
    """Parameters for seeded random scenario generation."""

    seed: int
    vehicle_count: int
    area: tuple[float, float]
    comm_range: float
    radios_per_vehicle: int
    frequency_pool: tuple[int, ...]
    bandwidth_range: tuple[float, float]


# generated bandwidths are rounded to one decimal, and one that rounds to 0.0 is raised to this
_MIN_GENERATED_BW = 0.1


def _check_genspec(spec: GenSpec) -> None:
    if spec.vehicle_count < 1:
        raise ValueError(f"vehicle_count must be >= 1, got {spec.vehicle_count}")
    if spec.radios_per_vehicle < 1:
        raise ValueError(f"radios_per_vehicle must be >= 1, got {spec.radios_per_vehicle}")
    if not spec.frequency_pool:
        raise ValueError("frequency_pool must not be empty")
    (w, h), (lo, hi) = spec.area, spec.bandwidth_range
    sizes = (("area.width", w), ("area.height", h), ("comm_range", spec.comm_range),
             ("bandwidth_range.min", lo), ("bandwidth_range.max", hi))
    for name, value in sizes:
        problem = _size_problem(name, value)
        if problem:
            raise ValueError(problem)
    if lo > hi:
        raise ValueError(f"bandwidth_range must satisfy min <= max, got ({lo}, {hi})")
    problem = _cost_bound_problem(spec.vehicle_count, w, h, _MIN_GENERATED_BW)
    if problem:
        raise ValueError(problem)


def generate_scenario(spec: GenSpec) -> Scenario:
    """Deterministically generate a scenario: equal specs yield identical scenarios.

    Positions are uniform over the area. Each vehicle gets the same number of
    radios, channels drawn uniformly from the pool and bandwidths uniform over
    `bandwidth_range`, rounded to one decimal. Draw order is fixed (per vehicle:
    x, y, then per radio: channel, bandwidth), so results are stable across runs.
    """
    _check_genspec(spec)
    rng = random.Random(spec.seed)
    w, h = spec.area
    lo, hi = spec.bandwidth_range
    vehicles = []
    for vid in range(1, spec.vehicle_count + 1):
        x = rng.uniform(0.0, w)
        y = rng.uniform(0.0, h)
        radios = []
        for rid in range(1, spec.radios_per_vehicle + 1):
            freq = rng.choice(spec.frequency_pool)
            bw = round(rng.uniform(lo, hi), 1)
            if bw <= 0:
                bw = _MIN_GENERATED_BW  # rounding can land on 0.0 when the range min is tiny
            radios.append(Radio(rid, freq, bw))
        vehicles.append(Vehicle(vid, (x, y), tuple(radios)))
    return Scenario((w, h), spec.comm_range, tuple(vehicles))


# --- JSON persistence ------------------------------------------------------
#
# The on-disk document mirrors the model with short field names:
#   {"area": {"width", "height"}, "comm_range",
#    "vehicles": [{"id", "x", "y", "radios": [{"id", "freq", "bw"}]}]}
# Unknown fields are rejected rather than ignored so typos surface early.


def save_scenario(scenario: Scenario) -> str:
    """Serialize to the JSON document format (trailing newline included)."""
    doc = {
        "area": {"width": float(scenario.area[0]), "height": float(scenario.area[1])},
        "comm_range": float(scenario.comm_range),
        "vehicles": [
            {
                "id": v.vehicle_id,
                "x": float(v.position[0]),
                "y": float(v.position[1]),
                "radios": [
                    {"id": r.radio_id, "freq": r.frequency, "bw": float(r.bandwidth)}
                    for r in v.radios
                ],
            }
            for v in scenario.vehicles
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Raises ScenarioFormatError for malformed JSON, missing or unknown fields,
    and wrong types (with the offending field named), and
    ScenarioValidationError when the parsed scenario breaks model invariants.
    """
    try:
        raw = json.loads(text)
    # JSONDecodeError is a ValueError, as is an integer literal past the
    # int-string conversion limit; nesting too deep raises RecursionError
    except (ValueError, RecursionError) as exc:
        raise ScenarioFormatError(f"invalid JSON: {exc}") from exc
    scenario = _scenario_from_raw(raw)
    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioValidationError(problems)
    return scenario


def _fields(obj, path: str, required: tuple[str, ...]) -> None:
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{path}: expected an object")
    for name in required:
        if name not in obj:
            raise ScenarioFormatError(f"{path}: missing field '{name}'")
    for name in obj:
        if name not in required:
            raise ScenarioFormatError(f"{path}: unknown field '{name}'")


def _number(value, path: str) -> float:
    # bool is an int subclass; it is never a valid number here
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{path}: expected a number")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioFormatError(f"{path}: number out of float range") from None


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError(f"{path}: expected an integer")
    return value


def _scenario_from_raw(raw) -> Scenario:
    _fields(raw, "scenario", ("area", "comm_range", "vehicles"))
    _fields(raw["area"], "area", ("width", "height"))
    width = _number(raw["area"]["width"], "area.width")
    height = _number(raw["area"]["height"], "area.height")
    comm_range = _number(raw["comm_range"], "comm_range")
    if not isinstance(raw["vehicles"], list):
        raise ScenarioFormatError("vehicles: expected a list")
    vehicles = []
    for i, rv in enumerate(raw["vehicles"]):
        vpath = f"vehicles[{i}]"
        _fields(rv, vpath, ("id", "x", "y", "radios"))
        vid = _integer(rv["id"], f"{vpath}.id")
        x = _number(rv["x"], f"{vpath}.x")
        y = _number(rv["y"], f"{vpath}.y")
        if not isinstance(rv["radios"], list):
            raise ScenarioFormatError(f"{vpath}.radios: expected a list")
        radios = []
        for j, rr in enumerate(rv["radios"]):
            rpath = f"{vpath}.radios[{j}]"
            _fields(rr, rpath, ("id", "freq", "bw"))
            radios.append(
                Radio(
                    _integer(rr["id"], f"{rpath}.id"),
                    _integer(rr["freq"], f"{rpath}.freq"),
                    _number(rr["bw"], f"{rpath}.bw"),
                )
            )
        vehicles.append(Vehicle(vid, (x, y), tuple(radios)))
    return Scenario((width, height), comm_range, tuple(vehicles))
