"""Spans recorded from outside the program, around its public layer calls.

The traced pass replaces each name in :data:`TARGETS` with a wrapper that
records one span per call, and restores the originals afterwards. Nothing
inside ``src/`` changes: the wrappers sit on module attributes and class
attributes that the program looks up at call time, so a call made through
them is timed exactly where it crosses a layer boundary.

A span is ``{"trace", "id", "parent", "name", "start", "end"}`` plus any
attributes given to :meth:`Tracer.span`; ``parent`` is the span open on the
same thread when it started. Spans stay in memory until the benchmark writes
them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager

#: ``(module, attribute, span name)`` for every call the traced pass times.
#: ``Class.method`` attributes are wrapped on the class, so every instance
#: the program creates goes through the wrapper.
TARGETS = (
    ("repro.pipeline.setup", "Setup.run", "pipeline.setup"),
    ("repro.bsp.engine", "BSPEngine.run", "bsp.engine"),
    ("repro.pipeline.reconstruct", "Reconstruct.run", "pipeline.reconstruct"),
    ("repro.pipeline.setup", "partition_graph", "partitioning.partition"),
    ("repro.pipeline.setup", "build_metagraph", "graph.metagraph.build"),
    ("repro.pipeline.setup", "build_merge_tree", "core.merge_tree.build"),
    ("repro.pipeline.setup", "plan_remote_placement", "core.improvements.placement"),
    ("repro.pipeline.program", "run_phase1", "core.phase1.run"),
    ("repro.pipeline.program", "merge_states", "core.merging.merge"),
    ("repro.pipeline.reconstruct", "reconstruct_circuit", "core.phase3.reconstruct"),
    ("repro.scenarios.postman", "eulerize_plan", "scenarios.postman.eulerize"),
    ("repro.scenarios.postman", "greedy_odd_matching", "scenarios.postman.matching"),
    ("repro.scenarios.postman", "bfs_distances", "graph.traversal.bfs"),
    ("repro.scenarios.postman", "shortest_path", "graph.traversal.shortest_path"),
    # The HTTP call each serve-mixed request makes.
    ("repro.jobs.client", "JobClient.submit", "jobs.http.submit"),
    ("repro.jobs.client", "JobClient.mutate", "jobs.http.mutate"),
)


def _owner(module: str, attr: str):
    """``(object holding the attribute, attribute name)`` for a target."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans for one trace id; installs and removes the wrappers."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the ``with`` body as one span under the thread's open span."""
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({"trace": self.trace_id, "id": span_id,
                               "parent": parent, "name": name,
                               "start": start, "end": end, **attrs})

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the ``with`` body, then restore them all."""
        try:
            for module, attr, name in TARGETS:
                owner, key = _owner(module, attr)
                original = (owner.__dict__[key] if isinstance(owner, type)
                            else getattr(owner, key))
                self._saved.append((owner, key, original))
                setattr(owner, key, self._wrap(original, name))
            yield self
        finally:
            while self._saved:
                owner, key, original = self._saved.pop()
                setattr(owner, key, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_totals(spans: list[dict]) -> list[dict]:
    """Per root span (one benchmark operation): layer seconds and counts.

    Returns one dict per root, in start order: ``{"root": span, "total":
    {name: seconds}, "self": {name: seconds}, "calls": {name: n}}`` over
    the root's descendants (the root itself excluded).
    """
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def root_of(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s["id"]

    out = {s["id"]: {"root": s, "total": {}, "self": {}, "calls": {}}
           for s in spans if s["parent"] is None}
    for s in spans:
        if s["parent"] is None:
            continue
        entry, name = out[root_of(s)], s["name"]
        entry["total"][name] = entry["total"].get(name, 0.0) + s["end"] - s["start"]
        entry["self"][name] = entry["self"].get(name, 0.0) + selfs[s["id"]]
        entry["calls"][name] = entry["calls"].get(name, 0) + 1
    return sorted(out.values(), key=lambda e: e["root"]["start"])
