"""Span recorder for the traced benchmark run.

`instrument()` wraps every public function of every loaded ova360
module and rebinds each name that refers to one, so the
`from .primality import is_prime` copies in goldbach, mersenne, matrix
and the rest are traced too, not only `primality.is_prime`. Spans
(name, start, end, parent) are kept in flat arrays in memory and
reduced to per-function totals once the operation has finished.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "ova360"
# The Miller-Rabin entry points; prime_ratio counts only outermost calls,
# because is_prime_big delegates to is_prime below 2**64.
MR_FUNCTIONS = ("primality.is_prime", "primality.is_prime_big")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.returned_true = array("b")
        self.nbytes = array("q")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self._stack
        span_name, parent, start, end = (
            self.span_name, self.parent, self.start, self.end)
        returned_true, nbytes = self.returned_true, self.nbytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            returned_true.append(0)
            nbytes.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if result is True:
                returned_true[idx] = 1
            elif type(result) is np.ndarray:
                nbytes[idx] = result.nbytes
            return result

        return traced

    def summary(self) -> dict:
        """Per-function calls, self time, True results and returned bytes;
        parent->child call counts; outermost Miller-Rabin calls."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        funcs: dict[str, dict] = {}
        edges: dict[str, int] = {}
        mr_ids = {i for i, nm in enumerate(self.names) if nm in MR_FUNCTIONS}
        mr_calls = mr_true = 0
        for i in range(n):
            nid = self.span_name[i]
            f = funcs.setdefault(self.names[nid], {
                "calls": 0, "self_s": 0.0, "true": 0, "nbytes": 0})
            f["calls"] += 1
            f["self_s"] += self.end[i] - self.start[i] - child_time[i]
            f["true"] += self.returned_true[i]
            f["nbytes"] += self.nbytes[i]
            p = self.parent[i]
            parent_id = self.span_name[p] if p >= 0 else -1
            if p >= 0:
                key = f"{self.names[parent_id]}>{self.names[nid]}"
                edges[key] = edges.get(key, 0) + 1
            if nid in mr_ids and parent_id not in mr_ids:
                mr_calls += 1
                mr_true += self.returned_true[i]
        return {"spans": n, "funcs": funcs, "edges": edges,
                "mr_calls": mr_calls, "mr_true": mr_true}


def _is_traceable(module, attr: str, obj) -> bool:
    if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
        return False
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def instrument() -> Tracer:
    """Wrap the public functions of every loaded ova360 module and rebind
    every module-level name that refers to one of them."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    tracer = Tracer()
    wrapped: dict[int, tuple[object, object]] = {}
    for mod in modules:
        short = mod.__name__.removeprefix(PACKAGE + ".")
        for attr, obj in vars(mod).items():
            if _is_traceable(mod, attr, obj):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            pair = wrapped.get(id(obj))
            if pair is not None and pair[0] is obj:
                setattr(mod, attr, pair[1])
    originals = {id(orig) for orig, _ in wrapped.values()}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if id(obj) in originals:
                raise RuntimeError(f"{mod.__name__}.{attr} escaped tracing")
    return tracer
