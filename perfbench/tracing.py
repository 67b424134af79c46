"""Layer spans recorded from outside the program.

The benchmark wraps the public entry points of each ``repro`` layer and
installs the wrappers where callers look the names up: on the class for
methods, and in every loaded ``repro`` module that binds a module-level
function (``from .strategies import optimize_alpha`` makes a second
binding in ``repro.search.search``).  Nothing under ``src/`` changes.

A span is ``[layer, name, start, end, parent, unit, thread]``; spans stay
in memory and are written as JSON lines when the benchmark ends.  A
layer's self time is its span minus the spans directly under it.  Forked
workers are not traced: their time reaches the benchmark only through the
program's own ``profiler=`` and ``telemetry=`` hooks.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

__all__ = ["LAYERS", "SpanTracer"]

#: Layer name -> (module, public names), resolved lazily once ``repro`` is
#: importable.  A class entry wraps its public methods and ``__init__``.
LAYERS = {
    "plk": ("repro.plk.likelihood", ["PartitionLikelihood"]),
    "optimize": ("repro.optimize", ["BatchedNewton", "BatchedBrent",
                                    "newton_optimize", "brent_minimize"]),
    "core": ("repro.core", ["PartitionedEngine", "optimize_branch",
                            "optimize_branch_lengths", "optimize_alpha",
                            "optimize_rates", "optimize_model",
                            "smoothing_edge_order"]),
    "search": ("repro.search", ["spr_round", "nni_round", "tree_search",
                                "stepwise_addition_tree"]),
    "seqgen": ("repro.seqgen", ["bootstrap_replicate", "split_support"]),
    "parallel": ("repro.parallel", ["ParallelPLK"]),
    "serve": ("repro.serve", ["LocalClient", "LikelihoodService", "TeamPool",
                              "WarmTeam"]),
}


class SpanTracer:
    """Collects spans while installed; aggregates self time per layer."""

    def __init__(self):
        self.spans: list[list] = []
        self.unit = None
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._targets = self._resolve()

    # -- wrapper construction ----------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = [layer, name, time.perf_counter(), 0.0, parent, tracer.unit,
                    threading.get_ident()]
            tracer.spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _resolve(self) -> list[tuple[str, str, object]]:
        """(layer, qualified name, object) for every wrapped callable."""
        import importlib

        out = []
        for layer, (module_name, names) in LAYERS.items():
            module = importlib.import_module(module_name)
            for name in names:
                obj = getattr(module, name)
                if inspect.isclass(obj):
                    for attr, fn in vars(obj).items():
                        if inspect.isfunction(fn) and (
                            not attr.startswith("_") or attr == "__init__"
                        ):
                            out.append((layer, f"{name}.{attr}", (obj, attr, fn)))
                else:
                    out.append((layer, name, (None, name, obj)))
        return out

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Put every wrapper in place (idempotent)."""
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if n == "repro" or n.startswith("repro.")]
        for layer, qualname, (owner, attr, fn) in self._targets:
            wrapper = self._wrap(layer, qualname, fn)
            if owner is not None:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                if getattr(module, attr, None) is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------------

    def aggregate(self, units=None) -> dict:
        """Per-layer totals over the spans of ``units`` (all when None).

        Returns ``{"self_s": {layer: s}, "calls": {layer: n},
        "top_s": {thread: s}, "by_name": {qualname: [durations]}}`` where
        ``calls`` counts spans not nested in a span of the same layer and
        ``top_s`` sums spans with no parent, per thread.
        """
        child = defaultdict(float)
        for span in self.spans:
            if span[4] is not None:
                child[id(span[4])] += span[3] - span[2]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        top_s: dict[int, float] = defaultdict(float)
        by_name: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            if units is not None and span[5] not in units:
                continue
            duration = span[3] - span[2]
            self_s[span[0]] += duration - child[id(span)]
            parent = span[4]
            if parent is None or parent[0] != span[0]:
                calls[span[0]] += 1
            if parent is None:
                top_s[span[6]] += duration
            by_name[span[1]].append(duration)
        return {"self_s": dict(self_s), "calls": dict(calls),
                "top_s": dict(top_s), "by_name": dict(by_name)}

    def write(self, path: str) -> None:
        """Spans as JSON lines (parent as an index into the file)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for span in self.spans:
                layer, name, start, end, parent, unit, thread = span
                fh.write(json.dumps({
                    "layer": layer, "name": name, "start": start, "end": end,
                    "parent": None if parent is None else index[id(parent)],
                    "unit": unit, "thread": thread,
                }) + "\n")
