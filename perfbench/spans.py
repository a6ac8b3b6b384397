"""Per-layer spans recorded from outside the program.

``Tracer`` wraps every public function of the staralg layer modules, plus
``ProductIsomorphism.validate``, and records for each a call count and a
self time: the span's duration minus the time of the spans it called.
A module-level ``from .x import y`` makes a second binding of ``y``, so
the wrapper replaces every binding of the original function in every
loaded staralg module, not only the one in the defining module.  The
tracer is a context manager: leaving it puts every binding back, and its
counts accumulate across entries.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("numerics", "algebra", "states", "channels", "independence", "sampling", "cli")
DECIDED = ("Feasible", "InfeasibleCertified")


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.covered_s = 0.0
        self.solver_iterations = 0
        self.problems = 0
        self.decided = 0
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, key, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        observe = self._observe_extensions if key == "states.extend_state_batch" else None

        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[0]
                stack.pop()
                self_s[key] += dur - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += dur
                else:
                    self.covered_s += dur
            if observe is not None:
                observe(result)
            return result

        return functools.wraps(fn)(traced)

    def _observe_extensions(self, outcomes) -> None:
        self.problems += len(outcomes)
        self.decided += sum(o.status in DECIDED for o in outcomes)
        self.solver_iterations += sum(o.iterations for o in outcomes)

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"staralg.{layer}"]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        modules = [m for n, m in sys.modules.items() if n == "staralg" or n.startswith("staralg.")]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])
        iso = sys.modules["staralg.independence"].ProductIsomorphism
        self._restore.append((iso, "validate", iso.validate))
        iso.validate = self._wrap("independence.ProductIsomorphism.validate", iso.validate)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        out = {layer: (0.0, 0) for layer in LAYERS}
        for key, value in self.self_s.items():
            layer = key.split(".", 1)[0]
            out[layer] = (out[layer][0] + value, out[layer][1] + self.calls[key])
        return out
