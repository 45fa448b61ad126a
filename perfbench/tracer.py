"""Span tracer that wraps the public functions of the cvmodes modules.

Every public function defined in a traced module is replaced by a wrapper
wherever a cvmodes namespace binds it: in the defining module, in every
module that did ``from .core import ...``, and in the package root.  Each
call records one span (name, parent span, op id, start, end).  Spans stay
in memory as flat integer arrays and are written out once, at the end.

Self time of a span is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.  Counter
hooks run after a child returns, inside the parent span; their time is
recorded per parent span and left out of its self time as well.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("core", "transforms", "entanglement", "pipeline", "io",
                  "fixtures", "cli")


class Tracer:
    def __init__(self):
        self.names = []          # span name id -> "module.function"
        self.name_ids = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.hook_ns = array("q")  # time of child hooks run inside the span
        self.current = -1        # id of the open span, -1 at op level
        self.op = 0              # id of the op that spans belong to
        self.counters = {}
        self._bindings = []      # (namespace, attribute, original, wrapper)

    def span_name(self, span_id):
        return self.names[self.name_ids[span_id]]

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name, hook=None):
        """Return ``fn`` wrapped so that every call records a span.

        ``hook(tracer, args, kwargs, result, parent_span)`` runs after a
        successful call, outside the span, to update counters; its time is
        charged to the parent's ``hook_ns``, not to the parent's self time.
        """
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.starts)
            parent = self.current
            self.name_ids.append(name_id)
            self.parents.append(parent)
            self.ops.append(self.op)
            self.starts.append(0)
            self.ends.append(0)
            self.hook_ns.append(0)
            self.current = span
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.starts[span] = start
                self.ends[span] = end
                self.current = parent
            if hook is not None:
                hook_start = clock()
                hook(self, args, kwargs, result, parent)
                if parent >= 0:
                    self.hook_ns[parent] += clock() - hook_start
            return result

        return traced

    def install(self, package, hooks=None):
        """Wrap every public function of the traced modules of ``package``.

        Tracing starts with :meth:`enable` and stops with :meth:`disable`.
        """
        hooks = hooks or {}
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    name = f"{short}.{attr}"
                    wrappers[fn] = self.wrap(fn, name, hooks.get(name))
        prefix = package.__name__ + "."
        for key, module in list(sys.modules.items()):
            if key == package.__name__ or key.startswith(prefix):
                for attr, value in vars(module).items():
                    if inspect.isfunction(value) and value in wrappers:
                        self._bindings.append((module, attr, value, wrappers[value]))

    def enable(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def disable(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def spans(self):
        """Recorded spans as numpy arrays, plus the name table."""
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int64),
            "parent": np.frombuffer(self.parents, dtype=np.int64),
            "op": np.frombuffer(self.ops, dtype=np.int64),
            "start_ns": np.frombuffer(self.starts, dtype=np.int64),
            "end_ns": np.frombuffer(self.ends, dtype=np.int64),
            "hook_ns": np.frombuffer(self.hook_ns, dtype=np.int64),
            "names": np.array(self.names),
        }

    def save(self, path):
        np.savez(path, **self.spans())


def self_times(parent, start_ns, end_ns, hook_ns):
    """Per-span self time: duration minus the direct children's durations
    and minus the time of the children's counter hooks."""
    duration = end_ns - start_ns
    child = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    return duration - child - hook_ns


def summarize(spans):
    """Total calls and self time (ns) per span name."""
    names = spans["names"]
    ids = spans["name_id"]
    self_ns = self_times(spans["parent"], spans["start_ns"], spans["end_ns"],
                         spans["hook_ns"])
    calls = np.bincount(ids, minlength=len(names))
    self_total = np.bincount(ids, weights=self_ns, minlength=len(names))
    return {str(name): (int(calls[k]), float(self_total[k]))
            for k, name in enumerate(names)}


def child_share(spans, parent_name, child_names):
    """Share of ``parent_name`` span time (its children's hooks left out)
    spent in its direct ``child_names``."""
    names = [str(n) for n in spans["names"]]
    if parent_name not in names:
        return 0.0
    ids = spans["name_id"]
    parent = spans["parent"]
    duration = spans["end_ns"] - spans["start_ns"]
    parent_id = names.index(parent_name)
    is_parent = ids == parent_id
    total = (duration - spans["hook_ns"])[is_parent].sum()
    if total == 0:
        return 0.0
    child_ids = [names.index(c) for c in child_names if c in names]
    is_child = np.isin(ids, child_ids) & (parent >= 0)
    is_child &= ids[np.where(parent >= 0, parent, 0)] == parent_id
    return float(duration[is_child].sum() / total)
