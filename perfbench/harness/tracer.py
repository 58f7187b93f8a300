"""Timing wrappers around the program's public layer functions.

The benchmark changes nothing under ``src/``: it measures each layer from
outside by replacing the layer's public functions with wrappers that
record a span (name, start, end, parent) and then call the original.
Spans stay in memory; :func:`export` turns them into plain records with
self time (duration minus the time of the wrapped calls nested inside),
which :func:`summarize` aggregates.

A span's name is ``<layer>.<function>``, the layer being the module under
``src/repro`` it belongs to (see :func:`_targets`).  ``kernels`` is
reached only through ``core`` and timed there.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

__all__ = ["Tracer", "export", "install", "summarize"]


class _Span:
    __slots__ = ("name", "parent", "start", "end", "child")

    def __init__(self, name: str, parent: "_Span | None") -> None:
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0


class Tracer:
    """In-memory span recorder; one span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[_Span] = []
        self._local = threading.local()

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span = _Span(name, stack[-1] if stack else None)
            stack.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
                self.spans.append(span)

        return traced


def _targets() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped function."""
    coo = importlib.import_module("repro.sparse.coo")
    crs = importlib.import_module("repro.sparse.crs")
    ccs = importlib.import_module("repro.sparse.ccs")
    gen = importlib.import_module("repro.sparse.generators")
    pbase = importlib.import_module("repro.partition.base")
    importlib.import_module("repro.partition")
    cbase = importlib.import_module("repro.core.base")
    importlib.import_module("repro.core.registry")
    enc = importlib.import_module("repro.core.encoded_buffer")
    pack = importlib.import_module("repro.machine.packing")
    mach = importlib.import_module("repro.machine.machine")
    pool = importlib.import_module("repro.exec.pool")
    sess = importlib.import_module("repro.runtime.session")
    drv = importlib.import_module("repro.runtime.driver")
    store = importlib.import_module("repro.sweep.store")
    spans = importlib.import_module("repro.obs.spans")

    out: list[tuple[Any, str, str]] = [
        (pbase.PartitionPlan, "validate", "partition.validate"),
        (pbase.PartitionPlan, "extract_all", "partition.extract"),
        (coo.COOMatrix, "submatrix", "sparse.submatrix"),
        # random_sparse is imported by name, so patch every binding a
        # run can reach it through
        (gen, "random_sparse", "sparse.generate"),
        (sess, "random_sparse", "sparse.generate"),
        (drv, "random_sparse", "sparse.generate"),
        (crs.CRSMatrix, "from_coo", "core.compress"),
        (ccs.CCSMatrix, "from_coo", "core.compress"),
        (enc.EncodedBuffer, "encode", "core.encode"),
        (pack.PackedBuffer, "pack", "core.pack"),
        (mach.Machine, "__init__", "machine.build"),
        (mach.Machine, "reset", "machine.reset"),
        (mach.Machine, "send", "machine.send"),
        (pool.RankPool, "submit", "exec.submit"),
        (pool.RankPool, "result", "exec.result"),
        (sess.RunSession, "run", "runtime.run"),
        (sess.RunSession, "matrix_for", "runtime.matrix_for"),
        (store.ResultStore, "append", "sweep.append"),
        (spans.Observability, "snapshot", "obs.snapshot"),
        (spans.Observability, "verify_against_trace", "obs.verify"),
    ]
    # subclasses override plan()/run(): wrap each definition
    for cls in _subclasses(pbase.PartitionMethod):
        if "plan" in vars(cls):
            out.append((cls, "plan", "partition.plan"))
    for cls in _subclasses(cbase.DistributionScheme):
        if "run" in vars(cls):
            out.append((cls, "run", "core.run"))
    return out


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer function; returns the function that unwraps them."""
    restore: list[tuple[Any, str, Any]] = []
    for owner, attr, name in _targets():
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(tracer.wrap(name, raw.__func__))
        else:
            wrapped = tracer.wrap(name, raw)
        restore.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)
        restore.clear()

    return uninstall


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def export(spans: Iterable[_Span]) -> list[dict[str, Any]]:
    """Plain records: name, start, end, self time, parent name, whether a
    ``runtime.run`` encloses the span, and whether it is the outermost
    span of its layer."""
    out = []
    for s in spans:
        under_run = False
        outer = True
        p = s.parent
        while p is not None:
            under_run = under_run or p.name == "runtime.run"
            outer = outer and _layer(p.name) != _layer(s.name)
            p = p.parent
        out.append({
            "name": s.name, "start": s.start, "end": s.end,
            "self": (s.end - s.start) - s.child,
            "parent": s.parent.name if s.parent is not None else None,
            "under_run": under_run, "outer": outer,
        })
    return out


def summarize(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Totals per span name plus the figures the layer metrics need.

    ``calls``/``ms``/``self_ms`` are per span name; ``outer_ms`` is per
    layer (outermost spans only, so nested calls of one layer are not
    counted twice); ``top_ms`` is the time of spans with no wrapped
    parent, i.e. what the wrapped layers claim of the caller's time.
    """
    calls: dict[str, int] = defaultdict(int)
    ms: dict[str, float] = defaultdict(float)
    self_ms: dict[str, float] = defaultdict(float)
    outer_ms: dict[str, float] = defaultdict(float)
    top_ms = 0.0
    builds_in_runs = 0
    generated_in_lookup = 0
    for r in records:
        dur = (r["end"] - r["start"]) * 1000.0
        name = r["name"]
        calls[name] += 1
        ms[name] += dur
        self_ms[name] += r["self"] * 1000.0
        if r["outer"]:
            outer_ms[_layer(name)] += dur
        if r["parent"] is None:
            top_ms += dur
        if name == "machine.build" and r["under_run"]:
            builds_in_runs += 1
        if name == "sparse.generate" and r["parent"] == "runtime.matrix_for":
            generated_in_lookup += 1
    return {
        "calls": dict(calls), "ms": dict(ms), "self_ms": dict(self_ms),
        "outer_ms": dict(outer_ms), "top_ms": top_ms,
        "builds_in_runs": builds_in_runs,
        "generated_in_lookup": generated_in_lookup,
    }
