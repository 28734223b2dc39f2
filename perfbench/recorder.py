"""Traced-run recorder: call counts and self time per public function.

The recorder wraps the public functions of every kleingroup layer and
rebinds each wrapper wherever a caller looks the function up: module
globals (``from .plane import act_line`` binds by name at import) and
module-level dicts such as ``verify.SUITES``.  A call is attributed to
the module that defines the function (``__module__``).  Self time is a
span's duration minus the time covered by its child spans, so the self
times of all functions add up to the time spent inside the library.

A few boundaries also record counts of the work passed through them
(see ``_OBSERVERS``).  An observer runs outside every span, so its cost
shows only in the unattributed time.

Spans are aggregated per function in memory; per-task spans are kept as
a list.  Both are written out once, by :meth:`Recorder.dump`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "core", "plane", "subgroups", "isotropy", "models", "verify",
    "simplicial", "snf", "abelian", "homology", "cli",
)

# Dunder methods that are part of a layer's public surface: the
# hand-written constructors (dense matrix and complex construction) and
# the matrix product behind the double-boundary check.
_DUNDERS = ("__init__", "__matmul__")


def _public_methods(cls, path: str):
    """(name, raw attribute, function) for the methods of ``cls`` that
    are written in the layer's own source file."""
    for name, raw in vars(cls).items():
        if name.startswith("_") and name not in _DUNDERS:
            continue
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if inspect.isfunction(fn) and fn.__code__.co_filename == path:
            yield name, raw, fn


def _count_suite(counters, args, report) -> None:
    counters["verify.checks"] += report.checks


def _count_boundaries(counters, args, mats) -> None:
    counters["simplicial.simplices"] += mats[0].nrows + sum(m.ncols for m in mats)
    counters["simplicial.boundary_nnz"] += sum(
        len(row) - row.count(0) for m in mats for row in m.data)


def _count_smith_input(counters, args, result) -> None:
    peak = max((max(max(row), -min(row)) for row in args[0].data if row), default=0)
    counters["snf.input_max_bits"] = max(counters["snf.input_max_bits"], peak.bit_length())


_OBSERVERS = {
    "verify.run_suite": _count_suite,
    "simplicial.SimplicialComplex.boundary_matrices": _count_boundaries,
    "snf.smith_normal_form": _count_smith_input,
}


class Recorder:
    """Per-function counters with a stack of child-time accumulators."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, self_s, total_s]
        self.tasks: list[dict] = []
        self.counters = {"verify.checks": 0, "simplicial.simplices": 0,
                         "simplicial.boundary_nnz": 0, "snf.input_max_bits": 0}
        self._stack = [0.0]
        self._wrapped: dict[int, object] = {}

    # -- installation --------------------------------------------------

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        key = f"{layer}.{fn.__qualname__}"
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        observe = _OBSERVERS.get(key)
        counters = self.counters

        def traced(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt - child
                stat[2] += dt
                stack[-1] += dt
            if observe is not None:
                t1 = clock()
                observe(counters, args, result)
                stack[-1] += clock() - t1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self, extra_modules=()) -> None:
        """Wrap every layer's public functions and methods, then rebind
        the wrappers in all kleingroup modules and in ``extra_modules``."""
        for layer in LAYERS:
            mod = importlib.import_module(f"kleingroup.{layer}")
            path = mod.__file__
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._wrapped.setdefault(id(obj), self._wrap(obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, raw, fn in _public_methods(obj, path):
                        wrapper = self._wrap(fn)
                        if isinstance(raw, classmethod):
                            wrapper = classmethod(wrapper)
                        elif isinstance(raw, staticmethod):
                            wrapper = staticmethod(wrapper)
                        setattr(obj, mname, wrapper)
        targets = [m for n, m in sys.modules.items()
                   if n == "kleingroup" or n.startswith("kleingroup.")]
        for mod in targets + list(extra_modules):
            self._rebind(vars(mod))

    def _rebind(self, namespace: dict) -> None:
        wrapped = self._wrapped
        for name, obj in list(namespace.items()):
            if id(obj) in wrapped:
                namespace[name] = wrapped[id(obj)]
            elif isinstance(obj, dict) and not name.startswith("__"):
                for k, v in list(obj.items()):
                    if id(v) in wrapped:
                        obj[k] = wrapped[id(v)]

    # -- results -------------------------------------------------------

    def self_total_s(self) -> float:
        """Sum of all self times: the traced time spent in the library."""
        return sum(stat[1] for stat in self.stats.values())

    def task(self, label: str, start: float, end: float) -> None:
        self.tasks.append({"task": label, "start": start, "end": end})

    def layer_totals(self) -> dict[str, list]:
        out = {layer: [0, 0.0] for layer in LAYERS}
        for key, (calls, self_s, _) in self.stats.items():
            layer = key.split(".", 1)[0]
            out[layer][0] += calls
            out[layer][1] += self_s
        return out

    def dump(self, path) -> None:
        payload = {
            "functions": {k: {"calls": c, "self_s": s, "total_s": t}
                          for k, (c, s, t) in sorted(self.stats.items())},
            "tasks": self.tasks,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n")
