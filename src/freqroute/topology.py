"""Link graph construction: which vehicles can actually talk to each other."""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from typing import NamedTuple

from .model import Scenario, Vehicle


def euclid(p: tuple[float, float], q: tuple[float, float]) -> float:
    """Straight-line distance between two (x, y) points, in meters."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def shared_frequency_pairs(a: Vehicle, b: Vehicle) -> list[tuple[int, int]]:
    """All (a-radio, b-radio) id pairs tuned to the same channel.

    Ordered by a's radio list then b's. An empty result means these two
    vehicles cannot link no matter how close they are.
    """
    return [
        (ra.radio_id, rb.radio_id)
        for ra in a.radios
        for rb in b.radios
        if ra.frequency == rb.frequency
    ]


class Link(NamedTuple):
    """A usable directed hop: in range, sharing a channel, its radio pair already chosen.

    `radio_pairs` lists every (from-side, to-side) radio pair on a shared
    channel. `radio_pair` is the one a hop over this link uses: the receiving
    radio with the highest bandwidth, ties to the lowest receiving radio id,
    then the lowest transmitting id. `bandwidth` is that receiving radio's
    rating in kb/s.
    """

    from_vehicle: int
    to_vehicle: int
    distance: float
    radio_pairs: tuple[tuple[int, int], ...]  # (from-side radio, to-side radio)
    radio_pair: tuple[int, int]  # one of radio_pairs
    bandwidth: float


class LinkGraph:
    """Adjacency over vehicles that are within range and share a frequency.

    Neighbor lists are sorted by vehicle id so traversals are reproducible.
    The graph is symmetric: link(a, b) exists iff link(b, a) does, with the
    same distance and mirrored radio pairs. Each direction carries its own
    radio choice, made for its own receiver, so searches and the oracle read
    a hop's pair and bandwidth off the link instead of choosing again.
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

    def link(self, from_vehicle: int, to_vehicle: int) -> Link | None:
        for l in self._adj[from_vehicle]:
            if l.to_vehicle == to_vehicle:
                return l
        return None

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

    def components(self) -> list[set[int]]:
        """Connected components, ordered by their smallest vehicle id."""
        out: list[set[int]] = []
        done: set[int] = set()
        for vid in sorted(self._adj):
            if vid in done:
                continue
            comp = self.reachable(vid)
            done |= comp
            out.append(comp)
        return out


# A cell a hair wider than the range: a pair that passes the rounded
# `euclid(a, b) <= comm_range` can be up to a few ulps farther apart than the
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


def _receiver_preference(v: Vehicle) -> tuple[tuple[int, float], ...]:
    """v's (radio id, bandwidth) pairs, best receiver first: highest bandwidth, then lowest id.

    A repeated radio id keeps its first radio's bandwidth, as Vehicle.radio does.
    """
    rated: dict[int, float] = {}
    for r in v.radios:
        rated.setdefault(r.radio_id, r.bandwidth)
    return tuple(sorted(rated.items(), key=lambda item: (-item[1], item[0])))


def _link_choice(a: Vehicle, b: Vehicle, b_preference) -> tuple:
    """The radio pairs from a to b, the pair a hop uses, and its receiver's index in b_preference.

    The first receiving radio in b's preference that shares a channel with
    a wins; among the pairs into it, the lowest transmitting id.
    """
    pairs = tuple(shared_frequency_pairs(a, b))
    for k, (rx, _) in enumerate(b_preference):
        into = [pair for pair in pairs if pair[1] == rx]
        if into:
            return pairs, min(into), k
    return pairs, None, None


def build_link_graph(scenario: Scenario) -> LinkGraph:
    """Derive the link graph from vehicle positions, range, and channel plans.

    A link between a and b exists iff euclid(a, b) <= comm_range (equality
    counts as connected) and shared_frequency_pairs(a, b) is non-empty. Every
    vehicle appears as a vertex even when isolated. Each direction's radio
    pair is chosen here, once: the highest receiving bandwidth, then the
    lowest receiving radio id, then the lowest transmitting id.

    Candidates come from a uniform grid (fixed-radius near-neighbour
    bucketing, Bentley, Stanat & Williams 1977): every pair within range lies
    in the same or adjacent cells, so only the 3x3 block around a vehicle is
    tested. Pairs are visited in the order of an all-pairs scan by id, so
    neighbour lists come out sorted by id.
    """
    order = sorted(scenario.vehicles, key=lambda v: v.vehicle_id)
    adjacency: dict[int, list[Link]] = {v.vehicle_id: [] for v in order}
    side = _cell_side(scenario)
    keys = [
        (0, 0) if side is None else (int(v.position[0] // side), int(v.position[1] // side))
        for v in order
    ]
    cells: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(keys):
        cells.setdefault(key, []).append(i)
    blocks: dict[tuple[int, int], list[int]] = {}  # cell -> sorted members of its 3x3 block
    # a link's pairs depend only on the two (radio id, channel) plans and its
    # choice only on the receiver's preference order of radio ids, so vehicles
    # with the same plan and order share every _link_choice result
    prefs = [_receiver_preference(v) for v in order]
    profile_ids: dict[tuple, int] = {}
    profiles = [
        profile_ids.setdefault(
            (tuple((r.radio_id, r.frequency) for r in v.radios), tuple(rid for rid, _ in pref)),
            len(profile_ids),
        )
        for v, pref in zip(order, prefs)
    ]
    memo: list[dict[int, tuple]] = [{} for _ in profile_ids]
    reach = scenario.comm_range
    for i, a in enumerate(order):
        key = keys[i]
        block = blocks.get(key)
        if block is None:
            cx, cy = key
            block = blocks[key] = sorted(
                j for dx in (-1, 0, 1) for dy in (-1, 0, 1) for j in cells.get((cx + dx, cy + dy), ())
            )
        a_id, (ax, ay), a_prof = a.vehicle_id, a.position, profiles[i]
        a_memo, a_links = memo[a_prof], adjacency[a_id]
        for j in block[bisect_right(block, i):]:
            b = order[j]
            bx, by = b.position
            d = math.hypot(ax - bx, ay - by)  # euclid(a.position, b.position)
            if d > reach:
                continue
            b_prof = profiles[j]
            ahead = a_memo.get(b_prof)
            if ahead is None:
                ahead = a_memo[b_prof] = _link_choice(a, b, prefs[j])
                memo[b_prof][a_prof] = _link_choice(b, a, prefs[i])
            pairs, pair, k = ahead
            if pairs:
                b_id = b.vehicle_id
                back_pairs, back_pair, back_k = memo[b_prof][a_prof]
                a_links.append(Link(a_id, b_id, d, pairs, pair, prefs[j][k][1]))
                adjacency[b_id].append(
                    Link(b_id, a_id, d, back_pairs, back_pair, prefs[i][back_k][1])
                )
    return LinkGraph(adjacency)
