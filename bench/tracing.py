"""Spans around melsplit's public functions, installed from the benchmark.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper, both as the module global (which also catches calls inside the
module, such as eval_F4 -> eval_oscillatory) and wherever another module
of the package holds a binding to it.  A wrapper records one span: name,
layer, start, end, parent span and op id, plus the result or exception it
needs for the counters.  Spans stay in memory until ``write``.  Functions
that do not exist simply get no span, so the tracer keeps working while
later versions of the package merge or delete functions.  ``uninstall``
puts the originals back.
"""
from __future__ import annotations

import functools
import importlib
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

LAYERS = ("config", "harmonics", "quadrature", "melnikov", "dynamics", "asymptotics",
          "catalog", "cli")
#: counters beyond each layer's calls, busy_s and self_s
COUNTERS = ("quadrature.evaluations", "quadrature.distinct_frac", "quadrature.budget_errors",
            "quadrature.unresolved", "melnikov.classify.calls", "melnikov.classify.busy_s",
            "melnikov.classify.stages", "dynamics.splitting.calls", "dynamics.splitting.busy_s",
            "dynamics.splitting.evaluations", "dynamics.ode.calls", "dynamics.ode.busy_s",
            "dynamics.ode.steps")


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an op's root span
    op: int
    error: Optional[str] = None
    result: Any = None  # kept only where a counter reads it
    key: Optional[tuple] = None  # (args, kwargs) of a quadrature entry call


def _quadrature_result(obj) -> bool:
    return all(hasattr(obj, a) for a in ("value", "error_estimate", "evaluations"))


#: results the counters read, by span name
_KEEP_RESULT = {"quadrature.adaptive_quadrature", "dynamics.integrate", "melnikov.classify"}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[Any, str, Any]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"melsplit.{layer}") for layer in LAYERS}
        wrapped: dict[int, Any] = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(fn, type) or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                wrapped[id(fn)] = self._wrap(f"{layer}.{attr}", layer, fn)
        holders = [importlib.import_module("melsplit"), *modules.values()]
        for mod in holders:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and not attr.startswith("__"):
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapped[id(val)])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    def _wrap(self, name: str, layer: str, fn):
        spans, stack = self.spans, self._stack
        keep = name in _KEEP_RESULT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, perf_counter(), 0.0, stack[-1] if stack else -1, self._op)
            if layer == "quadrature" and (span.parent < 0 or spans[span.parent].layer != layer):
                span.key = (args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if keep or (layer == "quadrature" and _quadrature_result(result)):
                span.result = result
            return result

        return wrapper

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int, name: str) -> None:
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(Span(f"op:{name}", "bench", perf_counter(), 0.0, -1, op_id))

    def end_op(self) -> None:
        self.spans[self._stack.pop()].end = perf_counter()

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op, "error": s.error}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Counters and times per layer from one traced run.

    A layer's calls and busy time count its entry spans, those whose parent
    is in another layer; its self time is the sum over all its spans of the
    duration minus the children's durations.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out = dict.fromkeys([f"{layer}.{key}" for layer in LAYERS
                         for key in ("calls", "busy_s", "self_s")] + list(COUNTERS), 0)

    def add(key: str, value: float) -> None:
        out[key] += value

    distinct: set[str] = set()  # (op, function, arguments) of quadrature entry calls
    engine_results = []  # outermost QuadratureResult of each quadrature call tree
    for i, s in enumerate(spans):
        if s.layer == "bench":
            continue
        dur = s.end - s.start
        parent = spans[s.parent] if s.parent >= 0 else None
        add(f"{s.layer}.self_s", dur - child_time[i])
        if parent is None or parent.layer != s.layer:
            add(f"{s.layer}.calls", 1)
            add(f"{s.layer}.busy_s", dur)
            if s.key is not None:
                # a call that takes a function (adaptive_quadrature) is distinct
                args, kwargs = s.key
                distinct.add(f"span {i}" if any(map(callable, (*args, *kwargs.values())))
                             else f"{s.op}:{s.name}{args!r}{kwargs!r}")
            if s.layer == "quadrature" and s.error == "QuadratureBudgetError":
                add("quadrature.budget_errors", 1)
        if s.result is not None and _quadrature_result(s.result):
            outer = parent
            while outer is not None and not (outer.result is not None
                                             and _quadrature_result(outer.result)):
                outer = spans[outer.parent] if outer.parent >= 0 else None
            if outer is None:
                engine_results.append(s.result)
        if s.name == "melnikov.classify":
            add("melnikov.classify.calls", 1)
            add("melnikov.classify.busy_s", dur)
            if s.result is not None:
                add("melnikov.classify.stages", len(s.result.search_trace))
        elif s.name == "dynamics.splitting_measure":
            add("dynamics.splitting.calls", 1)
            add("dynamics.splitting.busy_s", dur)
        elif s.name == "quadrature.adaptive_quadrature" and s.result is not None:
            add("dynamics.splitting.evaluations", s.result[2])
        elif s.name == "dynamics.integrate":
            add("dynamics.ode.calls", 1)
            add("dynamics.ode.busy_s", dur)
            if s.result is not None:
                add("dynamics.ode.steps", len(s.result.t) - 1)
    out["quadrature.evaluations"] = int(sum(r.evaluations for r in engine_results))
    out["quadrature.unresolved"] = int(sum(abs(r.value) <= r.error_estimate for r in engine_results))
    calls = out["quadrature.calls"]
    out["quadrature.distinct_frac"] = len(distinct) / calls if calls else 1.0
    return out
