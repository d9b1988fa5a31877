"""Per-layer timers wrapped around the program's public entry points.

The traced run replaces a handful of module and class attributes with
timing wrappers for the duration of one operation and restores them
afterwards; nothing in ``src/`` knows it is being measured. Counts come
from the program's own metrics registry (``repro.obs``), which ticks
while an observer is registered.

Each wrapper accumulates the inclusive time of its layer. A layer that
re-enters itself (``WarmStartContext.refresh`` calls
``Model.to_matrix_form``) is counted once, at its outermost call. Time
spent inside any wrapper that has no wrapped caller is the *covered*
time; the rest of an operation's wall time is unattributed.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple


def ilp_mr_targets() -> List[Tuple[Any, str, str]]:
    """(owner, attribute, layer) for every timed entry point of ILP-MR."""
    import repro.ilp.solver as solver
    import repro.synthesis.ilp_mr as ilp_mr
    from repro.ilp import Model, WarmStartContext
    from repro.synthesis import SynthesisSpec

    return [
        (SynthesisSpec, "build_encoder", "synthesis.encode"),
        (ilp_mr, "learn_constraints", "synthesis.learncons"),
        (ilp_mr, "worst_case_failure", "synthesis.analysis"),
        (solver, "solve", "ilp.solve"),
        (Model, "to_matrix_form", "ilp.export"),
        (WarmStartContext, "refresh", "ilp.export"),
        (solver, "solve_with_scipy", "ilp.highs"),
        (solver, "solve_milp", "ilp.bnb"),
    ]


class LayerClock:
    """Inclusive seconds and call counts per layer, plus covered time."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.covered = 0.0
        self._depth: Counter = Counter()
        self._open = 0

    def wrap(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._depth[layer] += 1
            self._open += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open -= 1
                self._depth[layer] -= 1
                if self._depth[layer] == 0:
                    self.seconds[layer] += elapsed
                    self.calls[layer] += 1
                if self._open == 0:
                    self.covered += elapsed

        return timed

    @contextmanager
    def installed(self, targets: List[Tuple[Any, str, str]]) -> Iterator[None]:
        saved = []
        try:
            for owner, attr, layer in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(layer, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def registry_delta(before: Dict[str, Dict], after: Dict[str, Dict]) -> Dict[str, float]:
    """Counter and histogram-sum increments between two registry snapshots."""
    out: Dict[str, float] = {}
    for name, inst in after.items():
        prev = before.get(name, {})
        if inst["kind"] == "counter":
            out[name] = inst["value"] - prev.get("value", 0)
        elif inst["kind"] == "histogram":
            out[name + ".sum"] = inst["sum"] - prev.get("sum", 0.0)
    return out
