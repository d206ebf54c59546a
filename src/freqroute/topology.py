"""Link graph construction: which vehicles can actually talk to each other."""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
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

    Neighbor lists are sorted by vehicle id so traversals are reproducible.
    The graph is symmetric: a links to b iff b links to a, with the same
    distance. Each direction carries its own radio choice, made for its
    own receiver, so searches and the oracle read a hop's pair and bandwidth
    off the link instead of choosing again.
    """

    def __init__(self, adjacency: dict[int, list[Link]]):
        self._adj: dict[int, tuple[Link, ...]] = {
            vid: tuple(links) for vid, links in adjacency.items()
        }

    def __contains__(self, vehicle_id: int) -> bool:
        return vehicle_id in self._adj

    @property
    def vehicle_ids(self) -> tuple[int, ...]:
        return tuple(self._adj)

    def neighbors(self, vehicle_id: int) -> tuple[Link, ...]:
        return self._adj[vehicle_id]

    def link_count(self) -> int:
        """Number of undirected links."""
        return sum(len(links) for links in self._adj.values()) // 2

    def reachable(self, vehicle_id: int) -> set[int]:
        """Every vehicle connected to `vehicle_id`, itself included."""
        seen = {vehicle_id}
        queue = deque([vehicle_id])
        while queue:
            u = queue.popleft()
            for l in self._adj[u]:
                if l.to_vehicle not in seen:
                    seen.add(l.to_vehicle)
                    queue.append(l.to_vehicle)
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
    """The radio pair of a hop from a to b and its receiver's rank in b_plan, or (None, None).

    Plans are (channel, radio id) tuples in ranked order. b receives on its
    first-ranked radio whose channel a also has; a sends from its lowest
    radio id on that channel.
    """
    for k, (channel, rx) in enumerate(b_plan):
        senders = [tx for ch, tx in a_plan if ch == channel]
        if senders:
            return (min(senders), rx), k
    return None, None


def build_link_graph(scenario: Scenario) -> LinkGraph:
    """Derive the link graph from vehicle positions, range, and channel plans.

    A link between a and b exists iff their straight-line distance is at
    most comm_range (equality counts as connected) and the two share a
    channel. Every vehicle appears as a vertex even when isolated. Each
    direction's radio pair is chosen here, once, from the receiver's radios
    ranked by bandwidth then id (see Link).

    Candidates come from a uniform grid (fixed-radius near-neighbour
    bucketing, Bentley, Stanat & Williams 1977): every pair within range lies
    in the same or adjacent cells, so only the 3x3 block around a vehicle is
    tested. Pairs are visited in the order of an all-pairs scan by id, so
    neighbour lists come out sorted by id.
    """
    order = sorted(scenario.vehicles, key=lambda v: v.vehicle_id)
    adjacency: dict[int, list[Link]] = {v.vehicle_id: [] for v in order}
    # each vehicle is read once, into lists the candidate loop indexes
    ids = [v.vehicle_id for v in order]
    xs = [v.position[0] for v in order]
    ys = [v.position[1] for v in order]
    links = [adjacency[vid] for vid in ids]  # index -> that vehicle's link list
    side = _cell_side(scenario)
    keys = [(0, 0) if side is None else (int(x // side), int(y // side)) for x, y in zip(xs, ys)]
    cells: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(keys):
        cells.setdefault(key, []).append(i)
    blocks: dict[tuple[int, int], list[int]] = {}  # cell -> sorted members of its 3x3 block
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
    memo: list[dict[int, tuple]] = [{} for _ in plans]
    reach, hypot, new = scenario.comm_range, math.hypot, tuple.__new__
    for i, key in enumerate(keys):
        block = blocks.get(key)
        if block is None:
            cx, cy = key
            block = blocks[key] = sorted(
                j for dx in (-1, 0, 1) for dy in (-1, 0, 1) for j in cells.get((cx + dx, cy + dy), ())
            )
        a_id, ax, ay, a_no = ids[i], xs[i], ys[i], plan_nos[i]
        a_memo, a_links = memo[a_no], links[i]
        for j in block[bisect_right(block, i):]:
            d = hypot(ax - xs[j], ay - ys[j])
            if not d <= reach:
                continue
            b_no = plan_nos[j]
            ahead = a_memo.get(b_no)
            if ahead is None:
                ahead = a_memo[b_no] = _hop_choice(plans[a_no], plans[b_no])
                memo[b_no][a_no] = _hop_choice(plans[b_no], plans[a_no])
            pair, k = ahead
            if pair is not None:
                b_id = ids[j]
                back_pair, back_k = memo[b_no][a_no]
                # new(Link, fields) is Link(*fields) without the Python-level
                # __new__ that NamedTuple generates, the costliest step per link
                a_links.append(new(Link, (a_id, b_id, d, pair, ranked[j][k].bandwidth)))
                links[j].append(new(Link, (b_id, a_id, d, back_pair, ranked[i][back_k].bandwidth)))
    return LinkGraph(adjacency)
