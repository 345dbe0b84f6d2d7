"""Per-layer tracing of the nchns package, applied from outside it.

``Tracer.wrap`` replaces every public function of the layer modules with a
timing wrapper, in every ``nchns`` namespace that binds it (``from .x import
f`` copies ``f`` into each importing module), and the public methods of the
solver classes on the class itself.  Each call records one span: name,
start, end, parent span, the task it belongs to and, for the CG solves, the
iteration count of the returned ``SolveInfo``.  Spans stay in memory;
``unwrap`` puts every original object back, so untraced runs measure the
unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("grid", "kernels", "linsolve", "physics", "forward", "tangent",
          "adjoint", "optimize")

# Both CG solvers call their method ``solve``; their spans are named by the
# problem instead.  The Helmholtz constructor runs once per adjoint step, so
# it is traced as a layer operation of its own.
RENAMED = {
    "HelmholtzNeumannSolver.__init__": "linsolve.helmholtz_setup",
    "HelmholtzNeumannSolver.solve": "linsolve.helmholtz",
    "NeumannPoissonSolver.solve": "linsolve.poisson",
}


def _iterations(result):
    """CG iteration count when ``result`` is a ``(solution, SolveInfo)`` pair."""
    if isinstance(result, tuple) and len(result) == 2:
        return getattr(result[1], "iterations", None)
    return None


class Tracer:
    """Span recorder; ``wrap`` and ``unwrap`` bracket the traced region."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index, iters, task)
        self.task = 0        # identifier shared by the spans of one task
        self._stack = []
        self._patches = []   # (module or class, attribute, original object)
        self._names = {}     # span name -> original object

    # -- patching -----------------------------------------------------------

    def _traced(self, name, fn):
        if self._names.setdefault(name, fn) is not fn:
            raise RuntimeError(f"two traced objects share the span name {name}")
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if len(stack) else -1
            stack.append(idx)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, _iterations(result), self.task)
        return traced

    def _patch(self, target, attr, wrapper):
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, wrapper)

    def wrap(self):
        """Install the wrappers; every nchns module is imported first."""
        if self._patches:
            raise RuntimeError("tracer is already wrapped")
        self._names = {}
        try:
            wrappers = {}
            for layer in LAYERS:
                mod = importlib.import_module(f"nchns.{layer}")
                for attr, obj in vars(mod).items():
                    if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isfunction(obj):
                        wrappers[id(obj)] = (obj, self._traced(f"{layer}.{attr}", obj))
                    elif inspect.isclass(obj) and attr.endswith("Solver"):
                        self._wrap_methods(layer, obj)
            namespaces = [m for key, m in sorted(sys.modules.items())
                          if key == "nchns" or key.startswith("nchns.")]
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._patch(ns, attr, hit[1])
        except BaseException:
            self.unwrap()
            raise

    def _wrap_methods(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            name = RENAMED.get(f"{cls.__name__}.{attr}")
            if name is None and not attr.startswith("_"):
                name = f"{layer}.{attr}"
            if name is not None:
                self._patch(cls, attr, self._traced(name, obj))

    def unwrap(self):
        """Restore every patched attribute to its original object."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    @property
    def patches(self):
        """(module or class, attribute, original) for every wrapped binding."""
        return list(self._patches)

    @property
    def span_names(self):
        """Names of every traced function and method of the last ``wrap``."""
        return list(self._names)

    # -- aggregation --------------------------------------------------------

    def summary(self, task=None):
        """Per span name: calls, total s, self s (total minus children), iters.

        With ``task`` given, only the spans recorded under that task id count.
        """
        child = {}
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        stats = {}
        for i, (name, t0, t1, _, iters, tk) in enumerate(self.spans):
            if task is not None and tk != task:
                continue
            st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                         "iters": 0})
            st["calls"] += 1
            st["s"] += t1 - t0
            st["self_s"] += (t1 - t0) - child.get(i, 0.0)
            if iters is not None:
                st["iters"] += iters
        return stats
