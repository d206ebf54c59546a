"""Independent reference answers the benchmark checks the program's outputs against.

Nothing here calls into freqroute: links are rebuilt from the scenario's
public fields (positions, radios, comm_range) by the README's link rule:
within range, equality included, and at least one shared channel.
Shortest distances come from a plain Dijkstra. All of it runs outside the
timed region.
"""

from __future__ import annotations

import heapq
import math

Adjacency = dict[int, list[tuple[int, float]]]


def link_adjacency(scenario) -> Adjacency:
    """Neighbour lists (id, distance) of every vehicle, found by bucketing into range-sized cells."""
    reach = scenario.comm_range
    cells: dict[tuple[int, int], list] = {}
    for v in scenario.vehicles:
        x, y = v.position
        cells.setdefault((int(x // reach), int(y // reach)), []).append(v)
    channels = {v.vehicle_id: {r.frequency for r in v.radios} for v in scenario.vehicles}
    adj: Adjacency = {v.vehicle_id: [] for v in scenario.vehicles}
    for (cx, cy), members in cells.items():
        near = [w for dx in (-1, 0, 1) for dy in (-1, 0, 1) for w in cells.get((cx + dx, cy + dy), ())]
        for a in members:
            (ax, ay), a_id = a.position, a.vehicle_id
            for b in near:
                b_id = b.vehicle_id
                if b_id == a_id or channels[a_id].isdisjoint(channels[b_id]):
                    continue
                d = math.hypot(ax - b.position[0], ay - b.position[1])
                if d <= reach:
                    adj[a_id].append((b_id, d))
    return adj


def dijkstra(adj: Adjacency, source: int) -> dict[int, float]:
    """Shortest total link distance from `source` to every reachable vehicle."""
    dist = {source: 0.0}
    done: set[int] = set()
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def components(adj: Adjacency) -> list[list[int]]:
    """Connected components, each sorted, ordered by their smallest id."""
    seen: set[int] = set()
    out = []
    for start in sorted(adj):
        if start in seen:
            continue
        seen.add(start)
        comp, stack = [start], [start]
        while stack:
            for v, _ in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        out.append(sorted(comp))
    return out


def lowest_connected_pair(adj: Adjacency) -> tuple[int, int] | None:
    """The lexicographically first ordered pair (a < b) of vehicles that can reach each other."""
    for comp in components(adj):
        if len(comp) > 1:
            return comp[0], comp[1]
    return None


def route_problems(route, source: int, dest: int, vehicles: dict, comm_range: float) -> list[str]:
    """Why `route` is not a feasible simple route from source to dest; empty when it is.

    `vehicles` maps id to vehicle. Checks hop by hop: consecutive vehicles in
    range, the hop's radio pair exists on both ends and shares a channel, and
    the hop's distance and bandwidth are the ones those vehicles and radios give.
    """
    problems = []
    if (route.source, route.destination) != (source, dest):
        problems.append(f"route runs {route.source}->{route.destination}, asked {source}->{dest}")
    seq = route.vehicle_sequence
    if len(set(seq)) != len(seq):
        problems.append(f"route revisits a vehicle: {seq}")
    if source != dest and not route.hops:
        problems.append("route has no hops")
    prev = vehicles.get(route.source)
    for hop in route.hops:
        cur = vehicles.get(hop.vehicle_id)
        if prev is None or cur is None:
            problems.append(f"unknown vehicle on route: {seq}")
            break
        where = f"hop {prev.vehicle_id}->{cur.vehicle_id}"
        tx, rx = hop.radio_pair
        tx_radio = next((r for r in prev.radios if r.radio_id == tx), None)
        rx_radio = next((r for r in cur.radios if r.radio_id == rx), None)
        d = math.hypot(prev.position[0] - cur.position[0], prev.position[1] - cur.position[1])
        if d > comm_range:
            problems.append(f"{where} is out of range")
        if tx_radio is None or rx_radio is None or tx_radio.frequency != rx_radio.frequency:
            problems.append(f"{where}: radios {tx}, {rx} share no channel")
        elif hop.bandwidth != rx_radio.bandwidth:
            problems.append(f"{where}: bandwidth {hop.bandwidth} != {rx_radio.bandwidth}")
        if not math.isclose(hop.distance, d, rel_tol=1e-12, abs_tol=1e-9):
            problems.append(f"{where}: distance {hop.distance} != {d}")
        prev = cur
    return problems
