"""Link graph construction: which vehicles can actually talk to each other."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
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

    Made from each vehicle's neighbour ids, ascending, and a function that
    builds one vehicle's links from its id. `neighbors` calls that function
    the first time it is asked for a vehicle and keeps the tuple; `in`,
    `vehicle_ids`, `link_count` and `reachable` read the neighbour ids alone
    and build no link. Two threads asking for the same vehicle at once may
    both build its links, and both get equal tuples.

    Neighbor lists are sorted by vehicle id so traversals are reproducible.
    The graph is symmetric: a links to b iff b links to a, with the same
    distance. Each direction carries its own radio choice, made for its
    own receiver, so searches and the oracle read a hop's pair and bandwidth
    off the link instead of choosing again.
    """

    def __init__(self, near: dict[int, list[int]], build_links: Callable[[int], tuple[Link, ...]]):
        self._near = near  # vehicle id -> ids it links to, ascending
        self._build_links = build_links
        self._links: dict[int, tuple[Link, ...]] = {}

    def __contains__(self, vehicle_id: int) -> bool:
        return vehicle_id in self._near

    @property
    def vehicle_ids(self) -> tuple[int, ...]:
        return tuple(self._near)

    def neighbors(self, vehicle_id: int) -> tuple[Link, ...]:
        try:
            return self._links[vehicle_id]
        except KeyError:
            pass
        links = self._links[vehicle_id] = self._build_links(vehicle_id)
        return links

    def link_count(self) -> int:
        """Number of undirected links."""
        return sum(map(len, self._near.values())) // 2

    def reachable(self, vehicle_id: int) -> set[int]:
        """Every vehicle connected to `vehicle_id`, itself included."""
        near = self._near
        seen = {vehicle_id}
        queue = deque([vehicle_id])
        while queue:
            for w in near[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen


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


def _hop_choice(a_plan, b_plan) -> tuple:
    """The radio pair of a hop from a to b and its receiver's rank in b_plan.

    Plans are (channel, radio id) tuples in ranked order, and the two share
    a channel. b receives on its first-ranked radio whose channel a also
    has; a sends from its lowest radio id on that channel.
    """
    for k, (channel, rx) in enumerate(b_plan):
        senders = [tx for ch, tx in a_plan if ch == channel]
        if senders:
            return (min(senders), rx), k


def build_link_graph(scenario: Scenario) -> LinkGraph:
    """Derive the link graph from vehicle positions, range, and channel plans.

    A link between a and b exists iff their straight-line distance is at
    most comm_range (equality counts as connected) and the two share a
    channel. Every vehicle appears as a vertex even when isolated.

    Candidates come from a uniform grid (fixed-radius near-neighbour
    bucketing, Bentley, Stanat & Williams 1977): every pair within range lies
    in the same or adjacent cells, so only the 3x3 block around a vehicle is
    tested. Pairs are visited in the order of an all-pairs scan by id, so
    neighbour lists come out sorted by id. The pass records neighbour ids
    only; a shared channel is one AND of the two vehicles' channel bitmasks.

    A vehicle's `Link` tuple is built on its first `neighbors` call: each
    direction's radio pair is chosen then, from the receiver's radios ranked
    by bandwidth then id (see Link), and the distance is computed again,
    to the same float.
    """
    order = sorted(scenario.vehicles, key=lambda v: v.vehicle_id)
    # each vehicle is read once, into lists the candidate loop indexes
    ids = [v.vehicle_id for v in order]
    xs = [v.position[0] for v in order]
    ys = [v.position[1] for v in order]
    near: dict[int, list[int]] = {vid: [] for vid in ids}
    lists = [near[vid] for vid in ids]  # index -> that vehicle's neighbour ids
    # a hop's radio pair and receiver rank depend only on the two ranked
    # (channel, radio id) plans, so vehicles with the same plan share every
    # _hop_choice result; the bandwidth is read off the receiver's own radios
    ranked = [_ranked_radios(v) for v in order]
    numbered: dict[tuple, int] = {}  # ranked (channel, radio id) plan -> its number
    plan_nos = [
        numbered.setdefault(tuple((r.frequency, r.radio_id) for r in radios), len(numbered))
        for radios in ranked
    ]
    plans = list(numbered)  # plan number -> plan
    bits: dict = {}  # channel -> its bit, numbered by first appearance
    # a NaN channel equals no channel, itself included, so it gets no bit
    plan_masks = [
        sum({1 << bits.setdefault(ch, len(bits)) for ch, _ in plan if ch == ch}) for plan in plans
    ]
    masks = [plan_masks[no] for no in plan_nos]
    side = _cell_side(scenario)
    keys = [(0, 0) if side is None else (int(x // side), int(y // side)) for x, y in zip(xs, ys)]
    cells: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(keys):
        cells.setdefault(key, []).append(i)
    blocks: dict[tuple[int, int], list[int]] = {}  # cell -> sorted members of its 3x3 block
    reach, hypot = scenario.comm_range, math.hypot
    for i, key in enumerate(keys):
        block = blocks.get(key)
        if block is None:
            cx, cy = key
            block = blocks[key] = sorted(
                j for dx in (-1, 0, 1) for dy in (-1, 0, 1) for j in cells.get((cx + dx, cy + dy), ())
            )
        a_id, ax, ay, a_mask, a_near = ids[i], xs[i], ys[i], masks[i], lists[i]
        for j in block[bisect_right(block, i):]:
            if a_mask & masks[j] and hypot(ax - xs[j], ay - ys[j]) <= reach:
                a_near.append(ids[j])
                lists[j].append(a_id)
    return LinkGraph(near, _link_builder(near, ids, xs, ys, ranked, plan_nos, plans))


def _link_builder(near, ids, xs, ys, ranked, plan_nos, plans) -> Callable[[int], tuple[Link, ...]]:
    """The function that builds one vehicle's links, from build_link_graph's per-index lists.

    It keeps only what it is given, so the grid dies with build_link_graph.
    Each (sender plan, receiver plan) _hop_choice is made once.
    """
    memo: list[dict[int, tuple]] = [{} for _ in plans]
    hypot, new = math.hypot, tuple.__new__

    def build_links(a_id: int) -> tuple[Link, ...]:
        b_ids = near[a_id]  # an unknown id raises KeyError here
        i = bisect_left(ids, a_id)  # ids ascend, so bisection finds each index
        ax, ay, a_no = xs[i], ys[i], plan_nos[i]
        a_memo, links = memo[a_no], []
        for b_id in b_ids:
            j = bisect_left(ids, b_id)
            b_no = plan_nos[j]
            choice = a_memo.get(b_no)
            if choice is None:
                choice = a_memo[b_no] = _hop_choice(plans[a_no], plans[b_no])
            pair, k = choice
            # new(Link, fields) is Link(*fields) without the Python-level
            # __new__ that NamedTuple generates; hypot(-dx, -dy) equals
            # hypot(dx, dy), so both directions carry the same distance
            d = hypot(ax - xs[j], ay - ys[j])
            links.append(new(Link, (a_id, b_id, d, pair, ranked[j][k].bandwidth)))
        return tuple(links)

    return build_links
