"""In-memory span tracer for the ``radialspec`` package.

``Tracer.install`` rebinds every public function of every loaded radialspec
module, in every module namespace (and module-level dict, such as
``verify.SUITES``) that holds it, to a wrapper that records a span.  Because
library code calls its own functions through module globals, nested calls
become child spans: ``forward -> continuous_eigenfunction -> eval_radial``.
A span is (name, start, end, parent span, op id, size); ``size`` is a work
count taken from the arguments or the result where one is defined below.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Work counts per span, from the call's arguments or result.
SIZE_HOOKS = {
    "rayleigh.eval_radial": lambda a, k, res: np.size(_arg(a, k, 1, "r")),
    "quadrature.panel_rule": lambda a, k, res: np.size(res[0]),
    "resolvent.apply_resolvent": lambda a, k, res: np.size(_arg(a, k, 3, "r")),
    "transform.radial_rule": lambda a, k, res: np.size(res[0]),
    "transform.forward": lambda a, k, res: np.size(res.lam_grid),
    "transform.inverse": lambda a, k, res: np.size(_arg(a, k, 1, "coeffs").lam_grid)
    * np.size(_arg(a, k, 2, "r_grid")),
}


PACKAGE = "radialspec"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []
        self._wrappers: dict = {}

    def _is_target(self, obj) -> bool:
        module = getattr(obj, "__module__", None) or ""
        return (
            inspect.isfunction(obj)
            and not obj.__name__.startswith("_")
            and module.split(".")[0] == PACKAGE
            and not module.rsplit(".", 1)[-1].startswith("_")
        )

    def _wrap(self, fn):
        w = self._wrappers.get(fn)
        if w is not None:
            return w
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        name_id = len(self.names)
        self.names.append(name)
        hook = SIZE_HOOKS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            res = None
            try:
                res = fn(*args, **kwargs)
                return res
            finally:
                t1 = perf_counter()
                stack.pop()
                size = 0
                if hook is not None and res is not None:
                    try:
                        size = int(hook(args, kwargs, res))
                    except (AttributeError, IndexError, KeyError, TypeError):
                        size = 0
                spans[idx] = (name_id, t0, t1, parent, self.op, size)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        self._wrappers[fn] = traced
        return traced

    def install(self):
        prefix = PACKAGE + "."
        # Private modules (``radialspec._kernels``) are implementation detail:
        # their time counts as self time of the public function that calls them.
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None
            and (key == PACKAGE or key.startswith(prefix))
            and not key.rsplit(".", 1)[-1].startswith("_")
        ]
        for m in modules:
            for attr, obj in list(vars(m).items()):
                if self._is_target(obj):
                    setattr(m, attr, self._wrap(obj))
                    self._undo.append((vars(m), attr, obj))
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if self._is_target(val):
                            obj[key] = self._wrap(val)
                            self._undo.append((obj, key, val))

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            holder[key] = original
        self._undo.clear()

    def summary(self, ops):
        """{name: {"calls", "self_s", "total_s", "size"}} over the spans of the given op ids.

        Self time is a span's duration minus the durations of its children.
        """
        child_time = [0.0] * len(self.spans)
        for name_id, t0, t1, parent, op, size in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        stats: dict = {}
        for i, (name_id, t0, t1, parent, op, size) in enumerate(self.spans):
            if op not in ops:
                continue
            s = stats.setdefault(
                self.names[name_id], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "size": 0}
            )
            s["calls"] += 1
            s["self_s"] += (t1 - t0) - child_time[i]
            s["total_s"] += t1 - t0
            s["size"] += size
        return stats

    def pairs(self, parent: str, child: str):
        """(op, own size, summed size of `child` children) of each `parent` span."""
        under: dict = {}
        for name_id, t0, t1, par, op, size in self.spans:
            if par >= 0 and self.names[name_id] == child:
                under[par] = under.get(par, 0) + size
        return [
            (op, size, under.get(i, 0))
            for i, (name_id, t0, t1, par, op, size) in enumerate(self.spans)
            if self.names[name_id] == parent
        ]

    def write(self, path):
        """Save the spans as a compressed .npz: one array per span field, plus names."""
        cols = np.asarray(self.spans, np.float64).reshape(-1, 6)
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=cols[:, 0].astype(np.int32),
            start=cols[:, 1],
            end=cols[:, 2],
            parent=cols[:, 3].astype(np.int64),
            op=cols[:, 4].astype(np.int32),
            size=cols[:, 5].astype(np.int64),
        )
