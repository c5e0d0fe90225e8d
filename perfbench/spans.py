"""Per-layer tracing from outside the program.

A ``Tracer`` replaces the public functions and methods of every
``rlid`` module with wrappers that record a span each time control
enters a layer (a module of ``src/rlid``) from another layer or from
the benchmark.  Calls that stay inside one layer record nothing, so a
layer's self time is the time spent in its own code: a span's
duration minus the time its child spans cover.  Each module's imported
references are wrapped too (``solvers.degeneracy`` is a ``graph``
span), so cross-module calls are caught wherever they are made.

Spans live in flat in-memory lists and are summarised when a pass
ends.  Tiny helpers that run once per search node or per bit (listed
in ``_SKIP``) are left alone: a wrapper there would cost more than the
work it measures.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import sys
from time import perf_counter
from types import FunctionType

LAYERS = ("cli", "io", "graph", "coloring", "solvers", "bounds", "families")

_SKIP = {
    ("graph", "bits"),
    ("graph", "mask_of"),
    ("graph", "Graph.degree"),
    ("graph", "Graph.has_edge"),
    ("graph", "Graph.vertices"),
    ("graph", "Graph.neighbors"),
    ("solvers", "Budget.__init__"),
    ("solvers", "Budget.spend"),
}

COUNTERS = (
    "solvers.nodes", "solvers.attempts", "solvers.exact", "solvers.budget_exceeded",
    "bounds.reports", "bounds.exact", "bounds.notes",
    "io.parse_s", "io.write_s", "io.bytes_in", "io.bytes_out",
    "coloring.violations",
)


def _layer_of(fn):
    module = getattr(fn, "__module__", None) or ""
    if not module.startswith("rlid."):
        return None
    layer = module[len("rlid."):]
    return layer if layer in LAYERS else None


# -- counters taken at the layer boundaries -----------------------------


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _observe_solve(c, dur, args, kwargs, result, exc):
    c["solvers.attempts"] += 1
    if exc is not None:
        if type(exc).__name__ == "BudgetExceeded":
            c["solvers.budget_exceeded"] += 1
            c["solvers.nodes"] += exc.nodes
        return
    c["solvers.nodes"] += result.stats.nodes
    if result.status == "exact":
        c["solvers.exact"] += 1
    else:
        c["solvers.budget_exceeded"] += 1


def _observe_decide(c, dur, args, kwargs, result, exc):
    # every decide call in the benchmark gets a fresh Budget, so the
    # budget's running total is this call's node count
    c["solvers.attempts"] += 1
    budget = _arg(args, kwargs, 2, "budget")
    if budget is not None:
        c["solvers.nodes"] += budget.nodes
    elif exc is not None and hasattr(exc, "nodes"):
        c["solvers.nodes"] += exc.nodes
    if exc is None:
        c["solvers.exact"] += 1
    elif type(exc).__name__ == "BudgetExceeded":
        c["solvers.budget_exceeded"] += 1


def _observe_bounds(c, dur, args, kwargs, result, exc):
    if exc is None:
        c["bounds.reports"] += 1
        c["bounds.notes"] += len(result.notes)
        if result.exact is not None:
            c["bounds.exact"] += 1


def _observe_verify(c, dur, args, kwargs, result, exc):
    if exc is None:
        c["coloring.violations"] += len(result.violations)


def _observe_parse_text(c, dur, args, kwargs, result, exc):
    c["io.parse_s"] += dur
    c["io.bytes_in"] += len(_arg(args, kwargs, 0, "text") or "")


def _observe_parse_file(c, dur, args, kwargs, result, exc):
    c["io.parse_s"] += dur
    path = _arg(args, kwargs, 0, "path")
    if path is not None and os.path.exists(path):
        c["io.bytes_in"] += os.path.getsize(path)


def _observe_write(c, dur, args, kwargs, result, exc):
    c["io.write_s"] += dur
    if exc is None:
        c["io.bytes_out"] += len(result)


_OBSERVERS = {
    ("solvers", "chi_exact"): _observe_solve,
    ("solvers", "gamma_id_exact"): _observe_solve,
    ("solvers", "decide_k_rlid"): _observe_decide,
    ("solvers", "decide_k_lid"): _observe_decide,
    ("solvers", "decide_k_id"): _observe_decide,
    ("solvers", "decide_k_proper"): _observe_decide,
    ("bounds", "bounds_report"): _observe_bounds,
    ("coloring", "verify_rlid"): _observe_verify,
    ("coloring", "verify_lid"): _observe_verify,
    ("coloring", "verify_id"): _observe_verify,
    ("coloring", "verify_proper"): _observe_verify,
    ("coloring", "verify_identifying_code"): _observe_verify,
    ("io", "parse_graph_text"): _observe_parse_text,
    ("io", "parse_graph_file"): _observe_parse_file,
    ("io", "parse_coloring_file"): _observe_parse_file,
    ("io", "parse_vertex_set_file"): _observe_parse_file,
    ("io", "write_result"): _observe_write,
    ("io", "write_graph_edgelist"): _observe_write,
    ("io", "write_graph_dimacs"): _observe_write,
    ("io", "export_dot"): _observe_write,
}


# -- span arithmetic ----------------------------------------------------


def self_times(layers, starts, ends, parents):
    """Self time per layer name: each span's duration minus its children's."""
    covered = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    out = {}
    for i, layer in enumerate(layers):
        out[layer] = out.get(layer, 0.0) + (ends[i] - starts[i] - covered[i])
    return out


class Tracer:
    """Records layer-entry spans while ``enabled`` and installed."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.enabled = False
        self._patches = []
        self._wrappers = {}
        self.reset()

    def reset(self):
        self.layers = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.counters["io.parse_s"] = 0.0
        self.counters["io.write_s"] = 0.0

    # -- installation ---------------------------------------------------

    def _wrap(self, fn, layer, key):
        tracer = self
        observe = _OBSERVERS.get(key)

        def traced(*args, **kwargs):
            stack = tracer.stack
            if not tracer.enabled or (stack and tracer.layers[stack[-1]] == layer):
                return fn(*args, **kwargs)
            idx = len(tracer.starts)
            tracer.layers.append(layer)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.ends.append(0.0)
            stack.append(idx)
            result = exc = None
            tracer.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                tracer.ends[idx] = end
                stack.pop()
                if observe is not None:
                    observe(tracer.counters, end - tracer.starts[idx], args, kwargs, result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _wrapper_for(self, fn):
        layer = _layer_of(fn)
        if layer is None or (layer, fn.__qualname__) in _SKIP:
            return None
        if inspect.isgeneratorfunction(fn):
            return None  # a span would close before the generator runs
        if fn not in self._wrappers:
            self._wrappers[fn] = self._wrap(fn, layer, (layer, fn.__qualname__))
        return self._wrappers[fn]

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        classes = []
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, FunctionType):
                    w = self._wrapper_for(obj)
                    if w is not None:
                        self._patch(mod, name, w)
                elif (
                    isinstance(obj, type)
                    and obj.__module__ == mod.__name__
                    and not issubclass(obj, BaseException)
                ):
                    classes.append(obj)
        for cls in classes:
            for name, attr in list(vars(cls).items()):
                if name.startswith("_") and not (
                    name == "__init__" and not dataclasses.is_dataclass(cls)
                ):
                    continue
                if isinstance(attr, FunctionType):
                    w = self._wrapper_for(attr)
                    if w is not None:
                        self._patch(cls, name, w)
                elif isinstance(attr, classmethod):
                    w = self._wrapper_for(attr.__func__)
                    if w is not None:
                        self._patch(cls, name, classmethod(w))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- summary --------------------------------------------------------

    def summary(self):
        """Per-layer totals for everything recorded since ``reset``."""
        own = self_times(self.layers, self.starts, self.ends, self.parents)
        calls = dict.fromkeys(LAYERS, 0)
        for layer in self.layers:
            calls[layer] += 1
        out = dict(self.counters)
        for layer in LAYERS:
            out[layer + ".self_s"] = own.get(layer, 0.0)
            out[layer + ".calls"] = calls[layer]
        return out


def rlid_modules():
    """The package and its modules, in the order the tracer patches them."""
    import rlid  # noqa: F401  (imported so every submodule is loaded)

    return [sys.modules["rlid"]] + [sys.modules["rlid." + name] for name in LAYERS]
