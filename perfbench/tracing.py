"""Span tracing around the public functions of ``rank1tdse``, installed from outside.

The program has no tracing of its own, so :func:`install` wraps each public
function in its defining module and then rebinds every other reference to
the same function object inside the package (``experiments.evolve``,
``cli.make_gaussian``, ...).  Calls made from inside ``run_convergence`` or
the CLI are therefore caught too.  Spans are kept in memory and written out
when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

#: (module, attribute) pairs wrapped by :func:`install`.  A dotted attribute
#: names a method.
TARGETS = (
    ("lattice", "cbc_construct"),
    ("lattice", "load_lattice"),
    ("antialias", "build"),
    ("antialias", "cached_build"),
    ("antialias", "save_cache"),
    ("antialias", "load_cache"),
    ("antialias", "AntiAliasingSet.sha256"),
    ("transform", "forward"),
    ("transform", "save_snapshot"),
    ("operators", "make_kinetic"),
    ("operators", "make_potential"),
    ("operators", "make_gaussian"),
    ("splitting", "evolve"),
    ("diagnostics", "commutator_norm"),
    ("diagnostics", "commutator_sweep"),
    ("experiments", "run_convergence"),
    ("experiments", "emit"),
)

LAYERS = ("lattice", "antialias", "transform", "operators", "splitting",
          "experiments", "diagnostics", "cli")

_MODULES = ("lattice", "antialias", "transform", "operators", "splitting",
            "diagnostics", "experiments", "selftest", "cli")


class Tracer:
    """Records spans as ``[name, start, end, parent_index]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind all references to it inside the package."""
    mods = {m: importlib.import_module(f"rank1tdse.{m}") for m in _MODULES}
    mods["__init__"] = importlib.import_module("rank1tdse")
    for mod_name, attr in TARGETS:
        owner = mods[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(f"{mod_name}.{meth}", getattr(cls, meth)))
            continue
        original = getattr(owner, attr)
        traced = tracer.wrap(f"{mod_name}.{attr}", original)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)


def per_span_overhead_s(reps: int = 20000) -> float:
    """Cost one traced call adds, measured as traced minus untraced on a no-op."""
    def noop():
        return None
    per_call = []
    for fn in (noop, Tracer().wrap("noop", noop)):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((time.perf_counter() - t0) / reps)
    return per_call[1] - per_call[0]


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the time covered by child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return dict(out)


def totals(spans) -> dict[str, float]:
    """Summed duration per span name."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, _ in spans:
        out[name] += end - start
    return dict(out)
