"""Spans around the public entry points of corr2phase's modules.

The tracer replaces each entry point, in every loaded corr2phase module
that binds it, with a wrapper that records one span per call: name,
layer, start, end, parent span and thread id, plus counts derived from
the arguments and the result. install() and uninstall() swap the
wrappers in and out, so untraced invocations run the program as it is.
Nothing in `src/` is edited.

A call on a thread with no open span (a Monte Carlo pool worker) takes
the innermost open span of the tracing thread as its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

PACKAGE = "corr2phase"

# (module, attribute, layer). Layers are named after the modules.
ENTRY_POINTS = (
    ("cli", "main", "cli"),
    ("io", "load_population_csv", "io.load_population_csv"),
    ("io", "render_report", "io.render_report"),
    ("moments", "population_moments", "moments.population_moments"),
    ("montecarlo", "simulate", "montecarlo"),
    ("montecarlo", "enumerate_exact", "montecarlo"),
    ("montecarlo", "_aggregate", "montecarlo._aggregate"),
    ("montecarlo", "analytic_variance_for", "analytics"),
    ("analytics", "efficiency_report", "analytics"),
    ("estimators", "evaluate_rows", "estimators.evaluate_rows"),
    ("_kernels", "draw_rows", "kernels.draw_rows"),
    ("_kernels", "stats_rows", "kernels.stats_rows"),
)

INT64_BYTES = FLOAT64_BYTES = 8


def _count_draw(bound, result) -> dict:
    # numpy backend: an M x N int64 pool plus the two sorted outputs
    first, second = result
    M = first.shape[0]
    return {"rows": M, "bytes": M * (bound["N"] + first.shape[1] + second.shape[1]) * INT64_BYTES}


def _count_stats(bound, result) -> dict:
    # float64 values gathered: x, z over the first phase; y, x, z over the second
    M, n1 = bound["first"].shape
    n = bound["second"].shape[1]
    return {"rows": M, "bytes": M * (2 * n1 + 3 * n) * FLOAT64_BYTES}


def _count_load(bound, result) -> dict:
    return {"rows": result.N}


def _count_simulate(bound, result) -> dict:
    return {"used": result.reps_used, "attempted": result.reps_requested}


def _count_enumerate(bound, result) -> dict:
    return {"used": result.pairs_used, "attempted": result.pairs_total}


COUNTERS = {
    "_kernels.draw_rows": _count_draw,
    "_kernels.stats_rows": _count_stats,
    "io.load_population_csv": _count_load,
    "montecarlo.simulate": _count_simulate,
    "montecarlo.enumerate_exact": _count_enumerate,
}


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    parent: int | None
    thread: int
    invocation: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.invocation = -1
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[Span] = []
        self._wrappers = {}  # id(original) -> (original, wrapper)
        self._patches: list[tuple[object, str, object]] = []
        self.layers = {}  # layer -> names of its entry points that exist
        for mod, attr, layer in ENTRY_POINTS:
            name = f"{mod}.{attr}"
            try:
                func = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self.layers.setdefault(layer, []).append(name)
            self._wrappers[id(func)] = (func, self._wrap(func, name, layer))

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func, name: str, layer: str):
        counter = COUNTERS.get(name)
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._home_stack[-1] if self._home_stack else None)
            span = Span(next(self._ids), name, layer, parent.sid if parent else None,
                        threading.get_ident(), self.invocation, time.perf_counter())
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if counter is not None:
                try:
                    span.counts = counter(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, TypeError, ValueError, KeyError, IndexError):
                    span.counts = {}
            return result

        return traced

    def install(self, invocation: int) -> None:
        """Bind every wrapper in place of its function, wherever a module binds it."""
        self.invocation = invocation
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                original, wrapper = self._wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def dump(self) -> list[dict]:
        return [vars(s) for s in sorted(self.spans, key=lambda s: s.start)]


def _own_intervals(span: Span, children: list[Span]) -> list[tuple[float, float]]:
    """The span's interval minus the union of its children's intervals."""
    pieces, cursor = [], span.start
    for child in sorted(children, key=lambda c: c.start):
        if child.start > cursor:
            pieces.append((cursor, min(child.start, span.end)))
        cursor = max(cursor, child.end)
    if cursor < span.end:
        pieces.append((cursor, span.end))
    return [(a, b) for a, b in pieces if b > a]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer.

    A span's own time is its duration minus the part its children cover.
    Where own time of several spans overlaps (kernels on pool threads),
    each instant is split evenly between them, so the layer times add up
    to the wall time of the root spans.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    events = []
    for s in spans:
        for a, b in _own_intervals(s, children[s.sid]):
            events += [(a, 1, s.layer), (b, -1, s.layer)]
    events.sort(key=lambda e: (e[0], e[1]))
    totals: dict[str, float] = defaultdict(float)
    active: Counter = Counter()
    running, prev = 0, 0.0
    for t, delta, layer in events:
        if running:
            share = (t - prev) / running
            for name, k in active.items():
                if k:
                    totals[name] += share * k
        active[layer] += delta
        running += delta
        prev = t
    return dict(totals)
