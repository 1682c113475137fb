"""Spans around the calls into each quandlekit module, recorded from outside.

``Tracer.install()`` replaces every function and method defined in a layer
module with a wrapper, at its defining module and at every name other
modules imported it under, so a call is seen whichever name it is made
through.  Each wrapped call pushes a frame; on return the call's time is
added to its name's inclusive time (outermost call only, so recursion is
not counted twice) and its self time (duration minus the time of wrapped
calls made inside it).

Spans (id, parent id, request id, name, start, end) are kept in memory and
written out by ``dump_spans``.  Past ``SPAN_LIMIT`` calls of one function
within one request, or ``MAX_SPANS`` spans in all, further calls are only
aggregated, not stored.
"""

import importlib
import inspect
import json
import time

LAYERS = ("cli", "finite_quandle", "kernels", "permgroup", "nilpotency", "lattice",
          "two_nilpotent", "group_model", "welded", "magnus", "lie_trace")

# Not wrapped, so their time stays with the caller: per-element accessors
# cheaper than a wrapper, and the private body behind braid_fixes_all.
SKIP = {"finite_quandle.FiniteRack.op", "finite_quandle.FiniteRack.inv_op",
        "finite_quandle._UnionFind.find", "finite_quandle._UnionFind.union",
        "permgroup.perm_mul", "permgroup.perm_inv", "permgroup.identity_perm",
        "kernels._decode", "kernels._braid_fixes_all_numpy"}

SPAN_LIMIT = 100
MAX_SPANS = 200_000


def _size(table):
    return int(table.shape[0])


def _elements(args, kwargs, result, before):
    if before:
        return {"enumerations": 1, "elements": len(result)}
    return {}


# name -> (hook(args, kwargs) -> state before the call,
#          hook(args, kwargs, result, state) -> counter increments)
COUNTERS = {
    "permgroup.PermGroup.elements": (lambda a, k: a[0]._elements is None, _elements),
    "permgroup.lower_central_series": (None, lambda a, k, r, s: {"terms": len(r)}),
    "kernels.reductive_witness": (None, lambda a, k, r, s: {"tuples": _size(a[0]) ** (a[1] + 1)}),
    "kernels.weak_witness": (None, lambda a, k, r, s: {"tuples": _size(a[0]) ** (a[1] + 1)}),
    "kernels.distributive_witness": (None, lambda a, k, r, s: {"cells": _size(a[0]) ** 3}),
    "kernels.braid_fixes_all": (None, lambda a, k, r, s: {"tuples": _size(a[0]) ** a[5]}),
    "welded.weight_c_commutators": (None, lambda a, k, r, s: {"braids": len(r)}),
    "magnus.poly_mul": (None, lambda a, k, r, s: {"terms": len(r)}),
}


class Stat:
    __slots__ = ("calls", "s", "self_s", "active", "counts")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.counts = {}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []
        self.stack = []  # [span id or None, child time]
        self.request = 0
        self.per_request = {}
        self.next_id = 0
        self.enabled = True

    def begin_request(self, request_id):
        self.request = request_id
        self.per_request = {}

    # -- wrapping --------------------------------------------------------------

    def install(self):
        """Wrap every function and method defined in the layer modules."""
        modules = [importlib.import_module(f"quandlekit.{name}") for name in LAYERS]
        package = importlib.import_module("quandlekit")
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in sorted(vars(mod).items(), key=lambda kv: kv[0].startswith("_")):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if id(obj) not in replaced:
                        name = f"{short}.{attr}"
                        if name not in SKIP:
                            replaced[id(obj)] = (obj, self._wrap(obj, name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, f"{short}.{attr}")
        # rebind every name, in every module, that refers to a wrapped function
        for mod in modules + [package]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    setattr(mod, attr, replaced[id(obj)][1])

    def _wrap_class(self, cls, prefix):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__"):
                continue
            name = f"{prefix}.{attr}"
            if name in SKIP:
                continue
            if inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(obj, name))
            elif isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self._wrap(obj.__func__, name)))

    def _wrap(self, fn, name):
        stat = self.stats.setdefault(name, Stat())
        before_hook, after_hook = COUNTERS.get(name, (None, None))
        clock = time.perf_counter
        tracer = self
        stack = self.stack

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            n = tracer.per_request.get(name, 0) + 1
            tracer.per_request[name] = n
            span_id = None
            if n <= SPAN_LIMIT and tracer.next_id < MAX_SPANS:
                tracer.next_id += 1
                span_id = tracer.next_id
            state = before_hook(args, kwargs) if before_hook else None
            frame = [span_id, 0.0]
            stack.append(frame)
            stat.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.active -= 1
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if stat.active == 0:
                    stat.s += duration
                if stack:
                    stack[-1][1] += duration
                if span_id is not None:
                    parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
                    tracer.spans.append((span_id, parent, tracer.request, name, start, end))
            if after_hook:
                for key, value in after_hook(args, kwargs, result, state).items():
                    stat.counts[key] = stat.counts.get(key, 0) + value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results --------------------------------------------------------------

    def layer_self(self):
        """Self seconds per layer module."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0]] += stat.self_s
        return out

    def value(self, metric, ops):
        """Value of a per-layer metric named <module>.<function>.<stat>."""
        layer, _, rest = metric.partition(".")
        if rest in ("self_s", "self_share"):
            selfs = self.layer_self()
            if rest == "self_s":
                return selfs[layer]
            total = sum(selfs.values())
            return selfs[layer] / total if total else 0.0
        fn, _, stat_name = rest.rpartition(".")
        stat = self.stats[f"{layer}.{fn}"]
        if stat_name == "per_op":
            return stat.calls / ops
        if stat_name == "enumerations_per_op":
            return stat.counts.get("enumerations", 0) / ops
        if stat_name in ("calls", "s", "self_s"):
            return getattr(stat, stat_name)
        return stat.counts.get(stat_name, 0)

    def dump_spans(self, path):
        """One JSON array per line: id, parent id, request id, name, start, end."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
