#!/usr/bin/env python
"""Real task concurrency of the rank-per-process executor, and its price.

The process tier is kept for fault isolation, not speed: rank tasks are
too small a share of a run for real processes to beat the inline
simulator on CPU-bound work.  This file measures what the tier does
guarantee (the simulated results are byte-identical by the differential
battery — only wall-clock is measured here):

* ``overlap-p{4,16}`` — every rank runs a fixed ``exec.sleep`` task.
  The inline simulator executes rank tasks serially (p·t seconds); the
  process executor runs one OS process per rank, so the sleeps overlap
  (≈t seconds).  The ratio is a direct measurement of *real task
  concurrency*, independent of how many CPU cores the host has.

A second cell kind prices the supervision layer itself:

* ``supervised-p4`` — the p=4 overlap workload again, bare process
  executor vs the same session wrapped in a default-spec
  ``SupervisedSession``.  Supervision adds per-dispatch bookkeeping and
  deadline-bounded socket I/O — the cell records ``overhead`` =
  t_supervised/t_bare − 1, and ``check_regression.py --parallel`` fails
  if it exceeds 5%.

Usage::

    python benchmarks/perf/bench_parallel.py
    python benchmarks/perf/bench_parallel.py --out /tmp/fresh.json

The committed baseline is ``benchmarks/perf/BENCH_parallel.json``;
``check_regression.py --parallel`` enforces the floors against it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_parallel.json"

PROCS = (4, 16)
#: per-rank sleep for the overlap cells — long enough to swamp dispatch
#: overhead (a task round-trip is <1 ms), short enough for CI
SLEEP_S = 0.15


def best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def time_overlap(executor: str, p: int, repeats: int, supervise=None) -> float:
    """One round of per-rank ``exec.sleep`` tasks, submit-all-then-collect."""
    from repro.exec import use_supervision
    from repro.machine import Machine
    from repro.machine.trace import Phase

    machine = Machine(p, executor=executor)
    try:
        # session creation is lazy: the supervision scope must cover it
        with use_supervision(supervise):
            pool = machine.rank_pool()
            for r in range(p):  # warm-up: spawn workers, prime the sockets
                pool.submit(r, "exec.echo", Phase.COMPUTE, payload=None)
            for r in range(p):
                pool.result(r)

            def once():
                for r in range(p):
                    pool.submit(r, "exec.sleep", Phase.COMPUTE, seconds=SLEEP_S)
                for r in range(p):
                    pool.result(r)

            return best_of(once, repeats)
    finally:
        machine.shutdown()


def run_cells(repeats: int, verbose: bool = True) -> dict:
    cases: dict[str, dict] = {}

    def record(key, kind, p, t_sim, t_proc):
        cases[key] = {
            "kind": kind,
            "p": p,
            "t_sim_s": t_sim,
            "t_process_s": t_proc,
            "speedup": t_sim / t_proc if t_proc > 0 else float("inf"),
        }
        if verbose:
            print(
                f"{key:<18} sim {t_sim * 1e3:9.1f} ms   "
                f"process {t_proc * 1e3:9.1f} ms   "
                f"speedup {cases[key]['speedup']:5.2f}x"
            )

    for p in PROCS:
        t_sim = time_overlap("sim", p, repeats)
        t_proc = time_overlap("process", p, repeats)
        record(f"overlap-p{p}", "overlap", p, t_sim, t_proc)

    # supervision overhead: same p=4 overlap workload, bare vs supervised
    from repro.exec import SuperviseSpec

    t_bare = cases["overlap-p4"]["t_process_s"]
    t_sup = time_overlap("process", 4, repeats, supervise=SuperviseSpec())
    overhead = t_sup / t_bare - 1.0 if t_bare > 0 else float("inf")
    cases["supervised-p4"] = {
        "kind": "supervised",
        "p": 4,
        "t_bare_s": t_bare,
        "t_supervised_s": t_sup,
        "overhead": overhead,
    }
    if verbose:
        print(
            f"{'supervised-p4':<18} bare {t_bare * 1e3:8.1f} ms   "
            f"supervised {t_sup * 1e3:6.1f} ms   "
            f"overhead {overhead:+7.2%}"
        )
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-k wall clock per cell (default 3)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON (default {DEFAULT_OUT.name})")
    args = parser.parse_args(argv)

    cases = run_cells(args.repeats)
    report = {
        "meta": {
            "cores": os.cpu_count() or 1,
            "procs": list(PROCS),
            "sleep_s": SLEEP_S,
            "repeats": args.repeats,
            "numpy_version": np.__version__,
            "python_version": ".".join(map(str, sys.version_info[:3])),
        },
        "cases": cases,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({len(cases)} cases, "
          f"{report['meta']['cores']} core(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
