"""Outside-in tracing: wrap freqroute's public layer functions where their callers look them up.

Nothing under src/ changes. A Tracer swaps module globals for wrappers that
record one span per call (name, start, end, parent span, operation id) in
memory, and puts the originals back when its `installed()` block ends.
Per-layer metrics are derived from the spans after the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median

# (module whose global is replaced, global name, span name). The span name's
# first part is the layer the call goes into.
PATCH_POINTS = (
    ("freqroute.harness", "generate_scenario", "model.generate"),
    ("freqroute.harness", "build_link_graph", "topology.build"),
    ("freqroute.harness", "lowest_connected_pair", "harness.lowest_connected_pair"),
    ("freqroute.harness", "astar", "router.astar"),
    ("freqroute.harness", "best_routes_from", "oracle.best_routes_from"),
    ("freqroute.harness", "cross_check", "harness.cross_check"),
    ("freqroute.harness", "sweep_csv", "harness.sweep_csv"),
    ("freqroute.cli", "build_link_graph", "topology.build"),
    ("freqroute.cli", "load_scenario", "model.load"),
    ("freqroute.cli", "sweep_csv", "harness.sweep_csv"),
    ("freqroute.router", "route_stats", "metrics.route_stats"),
)

LAYERS = ("model", "topology", "router", "metrics", "oracle", "harness", "cli")

# What a span keeps of its call for the work counts, taken after its end time
# so the span's duration excludes it. Keeping whole arguments and results
# alive instead would slow the traced run through garbage collection.
DETAILS = {
    "topology.build": lambda args, graph: graph.link_count(),
    "router.astar": lambda args, route: (args[4].value, None if route is None else len(route.hops)),
    "oracle.best_routes_from": lambda args, optima: len(optima),
}

# span fields
NAME, START, END, PARENT, OP, DETAIL = range(6)


class Tracer:
    """Records spans for wrapped calls; `op` tags every span with the current operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: object = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        detail = DETAILS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if detail is not None:
                span[DETAIL] = detail(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every patch point for the duration of the block."""
        try:
            for module_name, attr, name in PATCH_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                                      "parent": s[PARENT], "op": s[OP]}) + "\n")


def layer_metrics(spans: list[list], timed_s: float, overhead: float) -> dict:
    """Per-layer metrics from recorded spans.

    Self time is a span's duration minus that of its children. Calls, self
    time and counts cover every span, set-up included; a layer's share is its
    self time in spans tagged with an operation over `timed_s`, the traced
    pass's timed wall time.
    """
    children = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]] += s[END] - s[START]
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    in_ops: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    counts: Counter = Counter()
    for s, child in zip(spans, children):
        name, detail = s[NAME], s[DETAIL]
        own = s[END] - s[START] - child
        calls[name] += 1
        self_s[name] += own
        if s[OP] is not None:
            in_ops[name.split(".")[0]] += own
        if detail is None:  # no detail kept, or the call raised
            continue
        if name == "topology.build":
            durations[name].append(s[END] - s[START])
            counts["topology.links"] += detail
        elif name == "router.astar":
            metric, hops = detail
            durations[f"router.astar.{metric}"].append(s[END] - s[START])
            counts["router.queries"] += 1
            if hops is None:
                counts["router.no_route"] += 1
            else:
                counts["router.hops"] += hops
        elif name == "oracle.best_routes_from":
            counts["oracle.pairs"] += detail

    def p50_ms(key: str) -> float:
        return median(durations[key]) * 1e3 if durations[key] else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in ("model.generate", "model.load", "topology.build", "router.astar",
                 "metrics.route_stats", "oracle.best_routes_from"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in ("harness.lowest_connected_pair", "harness.sweep_csv", "harness.cross_check", "cli"):
        out[f"{name}.self_s"] = (self_s[name], "s")
    out["topology.build.p50_ms"] = (p50_ms("topology.build"), "ms")
    out["router.astar.distance.p50_ms"] = (p50_ms("router.astar.distance"), "ms")
    out["router.astar.bandwidth.p50_ms"] = (p50_ms("router.astar.bandwidth"), "ms")
    for name in ("topology.links", "router.hops", "router.no_route", "router.queries", "oracle.pairs"):
        out[name] = (counts[name], "count")
    for layer in LAYERS:
        out[f"{layer}.share"] = (in_ops[layer] / timed_s if timed_s > 0 else 0.0, "ratio")
    out["trace.overhead"] = (overhead, "ratio")
    return out
