"""In-memory call spans around the package's layer boundaries.

The tracer replaces a function at the module attribute where its callers
look it up (`detection.erf`, `analysis.evaluate_point`, ...) with a wrapper
that records one span per call: layer name, start, end and the index of the
enclosing span. Nothing in the package's source changes, and `remove()`
puts every original back.

A layer's self time is its span's duration minus the durations of its
direct child spans; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from types import ModuleType
from typing import Callable

# Layers whose repeat ratio is reported: calls with the same bound
# arguments as an earlier call recompute a known result.
KEYED = ("analysis.max_distance", "analysis.scan_chirp")
# The layer whose objective (first argument) is counted per evaluation.
OBJECTIVE = "numerics.maximize_scalar"
EVAL_LAYER = "keyrate.evaluate_point"


class Tracer:
    """Patch (layer, module, attribute) targets and record spans in memory."""

    def __init__(self) -> None:
        # one [layer, start_ns, end_ns, parent_index] per call, in call order
        self.spans: list[list] = []
        self.args: dict[str, list[tuple[tuple, dict]]] = defaultdict(list)
        self.objective_evals = 0
        self.missing: list[str] = []
        self._stack = [-1]
        self._patched: list[tuple[ModuleType, str, Callable]] = []
        self._originals: dict[str, Callable] = {}

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        record = self.args[layer] if layer in KEYED else None
        if layer == OBJECTIVE:
            fn = self._count_objective(fn)

        def traced(*args, **kwargs):
            if record is not None:
                record.append((args, kwargs))
            span = [layer, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def _count_objective(self, fn: Callable) -> Callable:
        def counted(f, *rest, **kwargs):
            def f_counted(x):
                self.objective_evals += 1
                return f(x)

            return fn(f_counted, *rest, **kwargs)

        return counted

    def install(self, targets: list[tuple[str, ModuleType, str]]) -> None:
        for layer, module, attr in targets:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            self._originals.setdefault(layer, original)
            setattr(module, attr, self._wrap(layer, original))
            self._patched.append((module, attr, original))

    def remove(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def repeat_ratio(self, layer: str) -> float:
        """Share of calls whose bound arguments equal an earlier call's."""
        calls = self.args.get(layer, [])
        if not calls:
            return 0.0
        sig = inspect.signature(self._originals[layer])
        seen = set()
        for args, kwargs in calls:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.add(tuple((k, _freeze(v)) for k, v in bound.arguments.items()))
        return (len(calls) - len(seen)) / len(calls)

    def layers(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total and self ns, evaluate_point calls beneath."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for i, (layer, start, end, _) in enumerate(spans):
            row = table.setdefault(
                layer, {"calls": 0, "total_ns": 0, "self_ns": 0, "evals": 0}
            )
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[i]
        for layer, _, _, parent in spans:
            if layer != EVAL_LAYER:
                continue
            above = set()
            while parent >= 0:
                above.add(spans[parent][0])
                parent = spans[parent][3]
            for name in above:
                table[name]["evals"] += 1
        return table


def _freeze(value):
    if isinstance(value, list):
        return tuple(value)
    return value
