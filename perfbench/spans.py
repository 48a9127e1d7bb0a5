"""In-memory span recorder for the traced benchmark run.

Each layer entry point is replaced, for the duration of a traced run,
by a wrapper that records one span per call: the layer, the enclosing
span and the start and end clock readings.  Spans are stored in flat
arrays (about 21 bytes each, so the 1.8 million spans of a full search
sweep stay under 40 MB) and are reduced to per-layer call counts and
self times once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (module, attribute, layer, is_generator).  A layer may own several
# entry points.  Entry points that a refactor removes are reported as
# absent instead of failing the run.
LAYER_ENTRY_POINTS = (
    ("weavesym.design", "parse_design", "parse", False),
    ("weavesym.analysis", "translation_lattices", "lattice", False),
    ("weavesym.analysis", "_build_group", "group", False),
    ("weavesym.naming", "group_records", "naming", False),
    ("weavesym.naming", "oriented_plane_symbol", "naming", False),
    ("weavesym.naming", "layer_symbol_for", "naming", False),
    ("weavesym.naming", "lift_element", "lift", False),
    ("weavesym.classify", "classify_analysis", "classify", False),
    ("workloads", "record_json", "record", False),
    ("weavesym.diagrams", "color_diagram_svg", "svg", False),
    ("weavesym.diagrams", "layer_diagram_svg", "svg", False),
    ("weavesym.search", "iter_candidates", "enumerate", True),
    ("weavesym.search", "canonical_key", "dedup", False),
    ("weavesym.search", "search", "search", False),
    ("weavesym.catalog", "verify_catalog", "catalog", False),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in LAYER_ENTRY_POINTS))


class Tracer:
    def __init__(self):
        self.layer_id = {name: i for i, name in enumerate(LAYERS)}
        self.kind = array("B")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, fn, layer: str):
        lid = self.layer_id[layer]
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter_ns
        counts = self.counts
        count_elements = layer == "group"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(kind)
            kind.append(lid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count_elements:
                counts["group.elements"] += len(getattr(result, "elements", ()))
            return result

        return wrapper

    def wrap_generator(self, fn, layer: str):
        """One span per next() call, so generator work is charged to
        the layer that does it rather than to the consumer."""
        step = self.wrap(next, layer)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                counts[layer + ".yields"] += 1
                yield item

        return wrapper

    def summary(self) -> dict:
        """Per-layer calls and self time (span duration minus the time
        its direct child spans cover), and calls per (parent, child)
        layer pair."""
        n_layers = len(LAYERS)
        self_ns = [0] * n_layers
        calls = [0] * n_layers
        nested = Counter()
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        for i in range(len(kind)):
            k = kind[i]
            dur = end[i] - start[i]
            self_ns[k] += dur
            calls[k] += 1
            p = parent[i]
            if p >= 0:
                self_ns[kind[p]] -= dur
                nested[(LAYERS[kind[p]], LAYERS[k])] += 1
        return {
            "calls": dict(zip(LAYERS, calls)),
            "self_s": {name: ns / 1e9 for name, ns in zip(LAYERS, self_ns)},
            "nested": nested,
        }

    def root_span_seconds(self, layer: str) -> float:
        lid = self.layer_id[layer]
        return sum(self.end[i] - self.start[i] for i in range(len(self.kind))
                   if self.kind[i] == lid and self.parent[i] < 0) / 1e9


def absent_entry_points() -> list[str]:
    """Entry points that the current code no longer defines."""
    out = []
    for module, attr, _, _ in LAYER_ENTRY_POINTS:
        if getattr(importlib.import_module(module), attr, None) is None:
            out.append(f"{module}.{attr}")
    return out


@contextmanager
def traced(tracer: Tracer):
    """Route every binding of each entry point through the tracer.

    Modules bind helpers by name (``from .analysis import _build_group``),
    so each loaded weavesym module, the package itself and the
    benchmark's workload module are patched wherever they hold the
    original function; all bindings are restored on exit.
    """
    namespaces = [mod for name, mod in list(sys.modules.items())
                  if name in ("weavesym", "workloads") or name.startswith("weavesym.")]
    patched = []
    try:
        for module, attr, layer, is_gen in LAYER_ENTRY_POINTS:
            orig = getattr(importlib.import_module(module), attr, None)
            if orig is None:
                continue
            wrapper = (tracer.wrap_generator if is_gen else tracer.wrap)(orig, layer)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, name, wrapper)
                        patched.append((ns, name, orig))
        yield tracer
    finally:
        for ns, name, orig in reversed(patched):
            setattr(ns, name, orig)
