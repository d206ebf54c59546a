"""Link graph construction: which vehicles can actually talk to each other."""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable
from typing import NamedTuple

from .model import Radio, Scenario, Vehicle


class Link(NamedTuple):
    """A usable directed hop: in range, sharing a channel, its radio pair already chosen.

    `radio_pair` is the (from-side, to-side) radio pair a hop over this link
    uses: the receiving radio with the highest bandwidth among those on a
    channel the sender also has, ties to the lowest receiving radio id, then
    the sender's lowest radio id on that channel. `bandwidth` is that
    receiving radio's rating in kb/s.
    """

    from_vehicle: int
    to_vehicle: int
    distance: float
    radio_pair: tuple[int, int]  # (from-side radio, to-side radio), same channel
    bandwidth: float


class LinkGraph:
    """Adjacency over vehicles that are within range and share a frequency.

    Made from each vehicle's position keyed by id, in `vehicle_ids` order,
    and a function that builds one vehicle's links. `neighbors` builds a
    vehicle's links on its first call and keeps them. `in`, `vehicle_ids`
    and `position` build none; `link_count` builds every vehicle's. Two
    threads asking for one vehicle at once may both build its links, and
    both get equal tuples.

    Neighbor lists are sorted by vehicle id so traversals are reproducible.
    The graph is symmetric: a links to b iff b links to a, with the same
    distance. Each direction carries its own radio choice, made for its
    own receiver, so searches and the oracle read a hop's pair and bandwidth
    off the link instead of choosing again.
    """

    def __init__(
        self,
        positions: dict[int, tuple[float, float]],
        build_links: Callable[[int], tuple[Link, ...]],
    ):
        self._positions = positions  # vehicle id -> (x, y)
        self._build_links = build_links
        self._links: dict[int, tuple[Link, ...]] = {}

    def __contains__(self, vehicle_id: int) -> bool:
        return vehicle_id in self._positions

    @property
    def vehicle_ids(self) -> tuple[int, ...]:
        return tuple(self._positions)

    def position(self, vehicle_id: int) -> tuple[float, float]:
        return self._positions[vehicle_id]

    def neighbors(self, vehicle_id: int) -> tuple[Link, ...]:
        try:
            return self._links[vehicle_id]
        except KeyError:
            pass
        links = self._links[vehicle_id] = self._build_links(vehicle_id)
        return links

    def link_count(self) -> int:
        """Number of undirected links. Builds every vehicle's links, as a full read would."""
        neighbors = self.neighbors
        return sum(len(neighbors(vid)) for vid in self._positions) // 2


# A cell a hair wider than the range: a pair that passes the rounded
# `math.hypot(dx, dy) <= comm_range` can be up to a few ulps farther apart than the
# range, and with cells exactly `comm_range` wide such a pair can sit two
# cells apart (range 256, x = 256 - 2**-45 and x = 512).
_CELL_MARGIN = 1 + 2**-20
# Cells are also at least 1/_MAX_CELL_INDEX of the largest coordinate, which
# keeps every cell index small and exact: `x // side` is the true floor of
# x / side only while that quotient is far below 2**53.
_MAX_CELL_INDEX = 2**20


def _cell_side(scenario: Scenario) -> float | None:
    """Side of the square grid cells, or None when one cell must hold every vehicle.

    Any side of at least `comm_range * _CELL_MARGIN` is correct; an infinite
    range gives infinite cells, so every pair is tested. None covers the
    inputs no positive side can bucket: non-finite positions, a NaN range,
    and a range of zero or less with every vehicle at the origin.
    """
    coords = [c for v in scenario.vehicles for c in v.position]
    if not all(map(math.isfinite, coords)):
        return None
    extent = max(map(abs, coords), default=0.0)
    side = max(scenario.comm_range * _CELL_MARGIN, extent / _MAX_CELL_INDEX)
    return side if side > 0 else None


def _ranked_radios(v: Vehicle) -> tuple[Radio, ...]:
    """v's radios, best receiver first: highest bandwidth, then lowest radio id."""
    return tuple(sorted(v.radios, key=lambda r: (-r.bandwidth, r.radio_id)))


def build_link_graph(scenario: Scenario) -> LinkGraph:
    """Derive the link graph from vehicle positions, range, and channel plans.

    A link between a and b exists iff their straight-line distance is at
    most comm_range (equality counts as connected) and the two share a
    channel. Every vehicle appears as a vertex even when isolated.

    Candidates come from a uniform grid (fixed-radius near-neighbour
    bucketing, Bentley, Stanat & Williams 1977): every pair within range lies
    in the same or adjacent cells, so only the 3x3 block around a vehicle is
    tested. Up front this reads each vehicle once into per-index lists of ids,
    coordinates and channel bitmasks, and drops it into its cell; a shared
    channel is one AND of two bitmasks.

    A vehicle's `Link` tuple is built on its first `neighbors` call, which
    tests its block and chooses each direction's radio pair from the two
    vehicles' radios (see Link and _link_builder).
    """
    order = sorted(scenario.vehicles, key=lambda v: v.vehicle_id)
    # each vehicle is read once, into lists indexed like `order`
    ids = [v.vehicle_id for v in order]
    xs = [v.position[0] for v in order]
    ys = [v.position[1] for v in order]
    bits: dict = {}  # channel -> its bit, numbered by first appearance
    # a NaN channel equals no channel, itself included, so it gets no bit
    masks = [
        sum({1 << bits.setdefault(r.frequency, len(bits)) for r in v.radios if r.frequency == r.frequency})
        for v in order
    ]
    side = _cell_side(scenario)
    keys = [(0, 0) if side is None else (int(x // side), int(y // side)) for x, y in zip(xs, ys)]
    cells: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(keys):
        cells.setdefault(key, []).append(i)
    positions = {v.vehicle_id: v.position for v in order}
    return LinkGraph(positions, _link_builder(order, ids, xs, ys, masks, keys, cells, scenario.comm_range))


def _link_builder(order, ids, xs, ys, masks, keys, cells, reach) -> Callable[[int], tuple[Link, ...]]:
    """The function that builds one vehicle's links, from build_link_graph's per-index lists.

    A vehicle's links go to the members of its cell's 3x3 block, in
    ascending index order and so ascending by id, that share a channel with
    it and lie within `reach`: the list an all-pairs scan by id would give.
    Each block is gathered and sorted once, on first use. The hop from a
    into b takes b's first radio in _ranked_radios order whose channel a
    also has, and a's lowest radio id on that channel. A vehicle's radios
    are ranked the first time it is a receiver, and only then. Links with
    equal radio pairs share one pair tuple, so a 3000-vehicle fleet's
    ~37,000 links do not each hold their own (about 2 MB). The function
    holds no reference to the graph, so a graph is freed as soon as it is
    dropped.
    """
    blocks: dict[tuple[int, int], list[int]] = {}  # cell -> sorted members of its 3x3 block
    ranked: list[tuple[Radio, ...] | None] = [None] * len(order)  # index -> ranked radios
    pairs: dict[tuple[int, int], tuple[int, int]] = {}  # radio pair -> its shared tuple
    hypot, new = math.hypot, tuple.__new__

    def build_links(a_id: int) -> tuple[Link, ...]:
        i = bisect_left(ids, a_id)  # ids ascend, so bisection finds each index
        if ids[i:i + 1] != [a_id]:
            raise KeyError(a_id)
        key = keys[i]
        block = blocks.get(key)
        if block is None:
            cx, cy = key
            block = blocks[key] = sorted(
                j for dx in (-1, 0, 1) for dy in (-1, 0, 1) for j in cells.get((cx + dx, cy + dy), ())
            )
        ax, ay, a_mask = xs[i], ys[i], masks[i]
        # channel -> a's lowest radio id on it: later entries overwrite earlier
        # ones, so the ids go in descending; a NaN channel equals no channel,
        # but a dict would find the very same NaN object, so it is left out
        senders = {
            r.frequency: r.radio_id
            for r in sorted(order[i].radios, key=lambda r: r.radio_id, reverse=True)
            if r.frequency == r.frequency
        }
        links = []
        for j in block:
            if not a_mask & masks[j] or j == i:
                continue
            # hypot(-dx, -dy) equals hypot(dx, dy), so both directions carry
            # the same distance; a NaN distance is not in range
            d = hypot(ax - xs[j], ay - ys[j])
            if not d <= reach:
                continue
            receivers = ranked[j]
            if receivers is None:
                receivers = ranked[j] = _ranked_radios(order[j])
            for rx in receivers:  # b shares a channel with a, so one of these breaks
                if rx.frequency in senders:
                    break
            # new(Link, fields) is Link(*fields) without the Python-level
            # __new__ that NamedTuple generates
            pair = (senders[rx.frequency], rx.radio_id)
            links.append(new(Link, (a_id, ids[j], d, pairs.setdefault(pair, pair), rx.bandwidth)))
        return tuple(links)

    return build_links
