"""Per-layer tracing for the benchmark's traced runs.

install() wraps every public function of the package's layer modules and
puts the wrapper in every gromov_width module namespace that binds the
function, so calls from one layer into another become child spans.  Each
span records its name, start, end and parent; the spans of one request share
the request's id.  Self time (duration minus the time child spans cover) and
call counts are accumulated for every request; raw spans are kept in memory
for the first `keep_requests` requests and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

LAYERS = ("lattice", "polytope", "toric", "circle_action", "grassmannian", "seidel",
          "serialize", "cli")


class Tracer:
    def __init__(self, keep_requests: int):
        self.keep_requests = keep_requests
        self.requests = 0
        self.stack = []                       # open frames: [start, child_seconds, span_id]
        self.self_seconds = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()               # work counters recorded at layer boundaries
        self.distinct_polytopes = set()
        self.spans = []                       # (request, span_id, parent_id, name, start, end)
        self.next_span = 0

    def begin_request(self):
        self.requests += 1

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            stack = self.stack
            parent = stack[-1] if stack else None
            span_id = self.next_span
            self.next_span += 1
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                if parent is not None:
                    parent[1] += duration
                self.self_seconds[name] += duration - frame[1]
                self.calls[name] += 1
                if self.requests <= self.keep_requests:
                    self.spans.append((self.requests - 1, span_id,
                                       None if parent is None else parent[2],
                                       name, frame[0], end))
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def write_spans(self, path):
        with open(path, "w") as fh:
            for request, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps([request, span_id, parent, name, start, end]) + "\n")


def _after_enumerate_vertices(tracer, args, vertices):
    polytope = args[0]
    tracer.counts["polytope.facet_subsets"] += comb(len(polytope.facets), polytope.dim)
    tracer.counts["polytope.vertices_found"] += len(vertices)
    tracer.distinct_polytopes.add(polytope)


def _after_isotropy_report(tracer, args, report):
    tracer.counts["toric.isotropy_report.faces"] += len(report.entries)


def _after_product_action(tracer, args, action):
    tracer.counts["circle_action.product_action.components"] += len(action.components)


AFTER = {
    "polytope.enumerate_vertices": _after_enumerate_vertices,
    "toric.isotropy_report": _after_isotropy_report,
    "circle_action.product_action": _after_product_action,
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, wherever the package binds them."""
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"gromov_width.{layer}"]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                name = f"{layer}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, AFTER.get(name))
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "gromov_width" or mod_name.startswith("gromov_width."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict:
    """Every per-layer metric, per request unless the name says otherwise."""
    requests = max(tracer.requests, 1)
    out = {}
    for name in sorted(set(tracer.calls)):
        out[f"{name}.calls_per_req"] = (tracer.calls[name] / requests, "count")
        out[f"{name}.self_ms_per_req"] = (tracer.self_seconds[name] * 1e3 / requests, "ms")
    enumerations = tracer.calls["polytope.enumerate_vertices"]
    subsets = tracer.counts["polytope.facet_subsets"]
    out["polytope.enumerations_per_distinct_polytope"] = (
        enumerations / len(tracer.distinct_polytopes) if tracer.distinct_polytopes else 0.0,
        "ratio")
    out["polytope.facet_subsets_per_req"] = (subsets / requests, "count")
    out["polytope.vertex_yield"] = (
        tracer.counts["polytope.vertices_found"] / subsets if subsets else 0.0, "ratio")
    out["toric.isotropy_report.faces_per_req"] = (
        tracer.counts["toric.isotropy_report.faces"] / requests, "count")
    out["circle_action.product_action.components_per_req"] = (
        tracer.counts["circle_action.product_action.components"] / requests, "count")
    out["cli.output_bytes_per_req"] = (output_bytes / requests, "bytes")
    return out
