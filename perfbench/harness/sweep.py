"""Closed-loop driver for ``sweep-tables``: back-to-back ``run_sweep`` calls.

Each cycle runs one manifest (the cycle's seeded axis order) with
``jobs=1`` on the sim executor into a fresh store.  A unit is one cell,
timed between ``after_record`` callbacks (the first from the call
itself), so it covers the cell's run, its matrix generation when the
cell is the first at its size, and the fsync'd store append.  Units are
timed in CPU time (the fsync's wait is not CPU time) and in wall-clock
time.  Every record is compared
with ``result_to_dict`` of a one-shot run, and every finished store
file must be byte-identical to the first one of the same manifest.
"""

from __future__ import annotations

import itertools
import time
from typing import Any

from . import checks
from .direct import Cycle, closed_outcome, rotate
from .host import cpu_clock, scratch, tree_peak_mb
from .report import Outcome, Tally
from .tracer import Tracer
from .workloads import SETUP_REPEATS, Request, Workload, manifest_dict

__all__ = ["run_sweep_workload"]


def run_sweep_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.machine.export import result_to_dict
    from repro.sweep.manifest import Manifest
    from repro.sweep.orchestrator import run_sweep

    tally = Tally()
    refs = {
        r.key: checks.canonical(result_to_dict(res))
        for r, res in checks.references(workload.requests, tally.errors)
    }
    #: the first complete store of each manifest, by manifest hash
    store_refs: dict[str, bytes] = {}
    counter = itertools.count()
    cpu = cpu_clock()

    def one_sweep(tmp: Any, requests: tuple[Request, ...], c: Cycle) -> tuple[float, float]:
        """Run the manifest of ``requests`` into a fresh store; returns
        its ``(CPU seconds, wall-clock seconds)``."""
        manifest = Manifest.from_dict(manifest_dict(requests))
        cells = manifest.expand()
        expanded = [(c.scheme, c.partition, c.n, c.n_procs, c.sparse_ratio, c.seed) for c in cells]
        if expanded != [r.key for r in requests]:
            raise RuntimeError("the sweep stream does not match the manifest's expansion")
        path = tmp / f"store-{next(counter)}.jsonl"
        marks: list[tuple[float, float, int, dict[str, Any]]] = []
        t0, c0 = time.perf_counter(), cpu()
        try:
            run_sweep(
                manifest, path, jobs=1, executor="sim", backend="numpy",
                after_record=lambda seq, rec: marks.append(
                    (time.perf_counter(), cpu(), seq, rec)
                ),
            )
        except Exception as exc:  # noqa: BLE001 - the unfinished cells fail
            for _ in range(len(cells) - len(marks)):
                tally.record(False, f"run_sweep: {type(exc).__name__}: {exc}")
        elapsed = (cpu() - c0, time.perf_counter() - t0)
        prev, prev_cpu = t0, c0
        all_ok = len(marks) == len(cells)
        for t, tc, seq, record in marks:
            ms, cpu_ms = (t - prev) * 1000.0, (tc - prev_cpu) * 1000.0
            prev, prev_cpu = t, tc
            ok = (
                record["params"] == cells[seq].params()
                and checks.canonical(record["result"]) == refs.get(requests[seq].key)
            )
            all_ok = all_ok and ok
            tally.record(ok, f"cell {seq}: record differs from its reference")
            c.add(requests[seq].key, ms, cpu_ms, ok, int(record["result"]["wire_elements"]))
        data = path.read_bytes() if path.exists() else b""
        path.unlink(missing_ok=True)
        first = store_refs.setdefault(manifest.manifest_hash(), data) if all_ok else None
        if first is not None and data != first:
            tally.record(False, "store file differs from the first one of its manifest")
        return elapsed

    tracer = Tracer()
    modes = ["plain", "traced"] if trace else ["plain"]
    with scratch() as tmp:
        setups, wall_setups = zip(*(
            one_sweep(tmp, workload.requests, Cycle("setup"))
            for _ in range(SETUP_REPEATS)
        ))
        # memory is read after the set-ups, three whole sweeps in one fixed
        # order.  Read at the end of the run, the heap had grown from 138
        # to 176-181 MB in six of ten runs and not in the other four.
        peak = tree_peak_mb()
        cycles = rotate(
            workload, seed, seconds, modes, tracer,
            lambda requests, c: one_sweep(tmp, requests, c),
        )
    outcome = closed_outcome(
        workload, cycles, tracer, trace, peak, list(setups), list(wall_setups), tally
    )
    if trace:
        traced = [c for c in cycles if c.mode == "traced"]
        outcome.values["sweep.cell_ms"] = (
            sum(c.ms for c in traced) / sum(c.units for c in traced)
        )
    return outcome
