"""Closed-loop driver for the in-process workload, and the closed-loop
bookkeeping the sweep driver shares.

One caller runs the stream's whole cycles on a warm ``RunSession`` until
the time is up.  Each unit is timed around ``RunSession.run`` alone, in
CPU time and in wall-clock time (see ``host.cpu_clock``); the output
check (ledger and local-array digest against a one-shot ``run_scheme``)
runs after the clocks stop.

A traced run alternates untraced and traced cycles, so drift over the
run hits both alike.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from . import checks
from .host import cpu_clock, tree_peak_mb
from .metrics import Ratio, cycle_slices, median, median_tail, request_median
from .report import Outcome, Tally, layer_metrics
from .tracer import Tracer, export, install, summarize
from .workloads import SETUP_REPEATS, Request, Workload, closed_loop, stream

__all__ = ["Cycle", "closed_outcome", "rotate", "run_direct"]


@dataclass
class Cycle:
    """What one cycle of a closed loop did."""

    mode: str
    #: wall-clock time of the units, in ms
    ms: float = 0.0
    #: CPU time of the units, in ms
    cpu_ms: float = 0.0
    good: int = 0
    units: int = 0
    wire: int = 0
    #: unit CPU times, in ms, in the order they ran
    times: list[float] = field(default_factory=list)
    #: unit wall-clock times, in ms, in the same order
    wall: list[float] = field(default_factory=list)
    #: each unit's request key, in the same order
    keys: list[Any] = field(default_factory=list)

    def add(self, key: Any, ms: float, cpu_ms: float, ok: bool, wire: int) -> None:
        self.keys.append(key)
        self.ms += ms
        self.cpu_ms += cpu_ms
        self.units += 1
        self.good += ok
        self.wire += wire
        self.times.append(cpu_ms)
        self.wall.append(ms)


def rotate(
    workload: Workload, seed: int, seconds: float, modes: list[str], tracer: Tracer,
    run_one: Callable[[tuple[Request, ...], Cycle], None],
) -> list[Cycle]:
    """Run whole cycles until ``seconds`` have passed, cycle ``i`` in mode
    ``modes[i % len(modes)]``, with the layer wrappers installed for the
    ``"traced"`` ones."""
    cycles: list[Cycle] = []

    def run_cycle(index: int, requests: tuple[Request, ...]) -> None:
        c = Cycle(modes[index % len(modes)])
        uninstall = install(tracer) if c.mode == "traced" else None
        try:
            run_one(requests, c)
        finally:
            if uninstall is not None:
                uninstall()
        cycles.append(c)

    closed_loop(stream(workload, seed), seconds, run_cycle, min_cycles=len(modes))
    return cycles


def closed_outcome(
    workload: Workload, cycles: list[Cycle], tracer: Tracer, trace: bool,
    peak: float, setups: list[float], wall_setups: list[float], tally: Tally,
) -> Outcome:
    """End-to-end metrics from the untraced cycles or, for a traced run,
    the per-layer ones from the traced cycles.  ``setups`` are the
    set-ups' CPU seconds, ``wall_setups`` their wall-clock seconds.

    Layer spans are wall-clock, so the per-layer figures compare them
    with the units' wall-clock times."""
    plain = [c for c in cycles if c.mode == "plain"]
    latencies = [(k, t) for c in plain for k, t in zip(c.keys, c.times)]
    q, tail_ms, beyond = median_tail(cycle_slices([c.times for c in plain]))
    detail: dict[str, Any] = {
        "cycles": len(cycles), "cycle_len": plain[0].units, "samples": len(latencies),
        "tail_percentile": q, "tail_beyond": beyond, "setup_runs_cpu_s": setups,
    }
    if not trace:
        detail["wall"] = {
            "throughput_per_s": median(c.good / (c.ms / 1000.0) for c in plain),
            "latency_p50_ms": request_median(
                (k, t) for c in plain for k, t in zip(c.keys, c.wall)
            ),
            "latency_tail_ms": median_tail(cycle_slices([c.wall for c in plain]))[1],
            "setup_runs_s": wall_setups,
        }
        # per-cycle rates over each cycle's measured time, checks excluded
        return Outcome({
            "throughput_per_cpu_s": median(c.good / (c.cpu_ms / 1000.0) for c in plain),
            "cpu_p50_ms": request_median(latencies),
            "cpu_tail_ms": tail_ms,
            "peak_rss_mb": peak,
            "setup_s": median(setups),
        }, detail, tally)

    traced = [c for c in cycles if c.mode == "traced"]
    units = sum(c.units for c in traced)
    unit_ms = sum(c.ms for c in traced)
    summary = summarize(export(tracer.spans))
    # unit time outside every wrapped call, plus RunSession.run's own glue
    unclaimed = unit_ms - summary["top_ms"] + summary["self_ms"].get("runtime.run", 0.0)
    values = layer_metrics(summary, units, unit_ms, unclaimed)
    values["machine.elements_sent"] = sum(c.wire for c in traced) / units
    values["trace.overhead"] = Ratio(
        unit_ms / units, sum(c.ms for c in plain) / sum(c.units for c in plain),
        "ms per untraced unit",
    )
    detail["traced_units"] = units
    return Outcome(values, detail, tally)


def run_direct(workload: Workload, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.runtime.session import RunSession

    distinct = workload.requests
    tally = Tally()
    refs = {
        r.key: checks.ledger_digest(res)
        for r, res in checks.references(distinct, tally.errors)
    }

    cpu = cpu_clock()

    def unit(session: Any, req: Request) -> tuple[float, float, bool, int]:
        rr = checks.run_request(req)
        t0, c0 = time.perf_counter(), cpu()
        try:
            result = session.run(rr)
        except Exception as exc:  # noqa: BLE001 - a failed unit is a datum
            c1, t1 = cpu(), time.perf_counter()
            tally.record(False, f"{req.key}: {type(exc).__name__}: {exc}")
            return (t1 - t0) * 1000.0, (c1 - c0) * 1000.0, False, 0
        c1, t1 = cpu(), time.perf_counter()
        ok = checks.ledger_digest(result) == refs.get(req.key)
        tally.record(ok, f"{req.key}: output differs from its reference")
        return (t1 - t0) * 1000.0, (c1 - c0) * 1000.0, ok, int(result.wire_elements)

    with contextlib.ExitStack() as stack:
        setups: list[float] = []
        wall_setups: list[float] = []
        for _ in range(SETUP_REPEATS):
            stack.close()  # the previous set-up's session and its workers
            t0, c0 = time.perf_counter(), cpu()
            session = stack.enter_context(RunSession())
            for req in distinct:
                unit(session, req)
            setups.append(cpu() - c0)
            wall_setups.append(time.perf_counter() - t0)

        def run_one(requests: tuple[Request, ...], c: Cycle) -> None:
            for req in requests:
                c.add(req.key, *unit(session, req))

        tracer = Tracer()
        modes = ["plain", "traced"] if trace else ["plain"]
        cycles = rotate(workload, seed, seconds, modes, tracer, run_one)
        # the high-water mark of the whole run: set-ups and measured cycles
        peak = tree_peak_mb()
    return closed_outcome(workload, cycles, tracer, trace, peak, setups, wall_setups, tally)
