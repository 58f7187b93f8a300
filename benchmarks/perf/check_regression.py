#!/usr/bin/env python
"""Perf-regression gate over the kernel and executor-scaling benchmarks.

Compares a fresh ``bench_kernels.py`` run against the committed baseline
(``BENCH_kernels.json``) and fails when the vectorisation advantage has
regressed:

* **relative gate** — for every kernel, the *geometric mean* of the
  fresh numpy-over-python speedups across the cases shared with the
  baseline must be at least ``(1 - tolerance)`` of the baseline's
  geometric mean (default tolerance 0.20, i.e. fail on a >20% drop).
  Aggregating per kernel keeps the gate insensitive to the scheduler
  jitter that dominates individual sub-millisecond cases while still
  catching any real devectorisation;
* **absolute floor** — pack/encode/decode at ``n=2000, s=0.1, p=16``
  must stay ≥5× (checked in whichever file carries those cases — the
  committed full-grid baseline always does; a ``--quick`` fresh run
  doesn't, and is then gated relatively only).

Speedups are wall-clock *ratios* on the same machine and inputs, so the
gate is robust to absolute machine speed; only a change in the kernels
themselves moves it.

The ``--parallel`` gate covers the rank-per-process executor's real
concurrency and supervision cost (``bench_parallel.py`` /
``BENCH_parallel.json``):

* **overlap floor** — the ``exec.sleep`` concurrency cells must show
  ≥1.8× at every measured p, *unconditionally*: overlapping sleeps
  needs real concurrent rank processes but zero spare cores, so a
  single-core CI box still proves (or refutes) genuine parallelism;
* **supervision overhead ceiling** — the ``supervised-p4`` cell prices
  the supervision layer on the same overlap workload; its
  ``overhead`` (t_supervised/t_bare − 1) must stay below 5%,
  unconditionally — fault tolerance that taxes the healthy path is a
  regression.

The ``--service`` gate covers the run service's throughput bench
(``bench_service.py`` / ``BENCH_service.json``):

* **warm floor** — the ``session-warm-process-p4`` cell's cold/warm
  latency ratio must be ≥1.5×, enforced against whichever file carries
  the cell (fresh first, else baseline).  Warm-session reuse that no
  longer beats a cold start by at least that much has lost its reason
  to exist;
* **zero loss below saturation** — every load cell at or below the
  report's measured saturation point must show ``dropped == 0`` and
  ``errors == 0``.  Rejects above saturation are fine (typed
  backpressure is the design); losses *below* it are a regression.

Usage (what CI runs)::

    python benchmarks/perf/bench_kernels.py --quick --out /tmp/fresh.json
    python benchmarks/perf/bench_parallel.py --out /tmp/par.json
    python benchmarks/perf/bench_service.py --quick --out /tmp/svc.json
    python benchmarks/perf/check_regression.py /tmp/fresh.json \
        --parallel /tmp/par.json --service /tmp/svc.json

With no ``--parallel`` / ``--service`` argument the committed
``BENCH_parallel.json`` / ``BENCH_service.json`` are self-checked, so
the executor and service gates always run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "BENCH_kernels.json"
PARALLEL_BASELINE = Path(__file__).resolve().parent / "BENCH_parallel.json"
SERVICE_BASELINE = Path(__file__).resolve().parent / "BENCH_service.json"

#: the acceptance floor: vectorised must beat the oracle by ≥ this factor
#: on the wire-format kernels at the paper-scale cell
ABS_FLOOR = 5.0
ABS_CASES = [f"{k}-n2000-s0.1-p16" for k in ("pack", "encode", "decode")]

#: executor concurrency floor and supervision ceiling (module docstring)
OVERLAP_FLOOR = 1.8
SUPERVISED_CASE = "supervised-p4"
SUPERVISED_OVERHEAD_MAX = 0.05

#: run-service floors (see module docstring for the arming rules)
WARM_FLOOR = 1.5
WARM_CASE = "session-warm-process-p4"


def load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def geomean(values: list[float]) -> float:
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def check(fresh: dict, baseline: dict, tolerance: float) -> list[str]:
    problems: list[str] = []
    base_cases = baseline["cases"]
    fresh_cases = fresh["cases"]

    shared = sorted(set(base_cases) & set(fresh_cases))
    if not shared:
        problems.append("no shared cases between fresh run and baseline")
    by_kernel: dict[str, list[str]] = {}
    for key in shared:
        by_kernel.setdefault(base_cases[key]["kernel"], []).append(key)
    for kernel, keys in sorted(by_kernel.items()):
        base_gm = geomean([base_cases[k]["speedup"] for k in keys])
        fresh_gm = geomean([fresh_cases[k]["speedup"] for k in keys])
        floor = (1.0 - tolerance) * base_gm
        if fresh_gm < floor:
            problems.append(
                f"{kernel}: geomean speedup {fresh_gm:.1f}x over "
                f"{len(keys)} case(s) fell below {floor:.1f}x "
                f"({(1 - tolerance):.0%} of baseline {base_gm:.1f}x)"
            )

    for key in ABS_CASES:
        carrier = fresh_cases if key in fresh_cases else base_cases
        where = "fresh" if key in fresh_cases else "baseline"
        if key not in carrier:
            problems.append(f"{key}: missing from both files")
            continue
        speedup = carrier[key]["speedup"]
        if speedup < ABS_FLOOR:
            problems.append(
                f"{key} ({where}): speedup {speedup:.1f}x below the "
                f"{ABS_FLOOR:.0f}x acceptance floor"
            )
    return problems


def check_parallel(fresh: dict, baseline: dict) -> list[str]:
    """Executor concurrency and supervision gates (see module docstring)."""
    problems: list[str] = []

    # overlap floor: unconditional, on the fresh run's concurrency cells
    overlap = {
        k: c for k, c in fresh["cases"].items() if c["kind"] == "overlap"
    }
    if not overlap:
        problems.append("parallel: fresh run has no overlap cells")
    for key, case in sorted(overlap.items()):
        if case["speedup"] < OVERLAP_FLOOR:
            problems.append(
                f"parallel: {key}: concurrency factor "
                f"{case['speedup']:.2f}x below the {OVERLAP_FLOOR}x floor "
                "(rank tasks are not actually overlapping)"
            )

    # supervision overhead ceiling: unconditional, like the overlap floor
    carrier = (
        fresh if SUPERVISED_CASE in fresh["cases"]
        else baseline if SUPERVISED_CASE in baseline.get("cases", {})
        else None
    )
    if carrier is None:
        problems.append(f"parallel: {SUPERVISED_CASE}: missing from both files")
    else:
        overhead = carrier["cases"][SUPERVISED_CASE]["overhead"]
        if overhead > SUPERVISED_OVERHEAD_MAX:
            problems.append(
                f"parallel: {SUPERVISED_CASE}: supervision overhead "
                f"{overhead:+.2%} above the {SUPERVISED_OVERHEAD_MAX:.0%} "
                "ceiling on the healthy path"
            )
    return problems


def check_service(fresh: dict, baseline: dict) -> list[str]:
    """Run-service gates (see module docstring)."""
    problems: list[str] = []

    # warm floor: fresh if it carries the cell, else the baseline
    carrier, where = (
        (fresh, "fresh") if WARM_CASE in fresh.get("cases", {})
        else (baseline, "baseline")
    )
    if WARM_CASE not in carrier.get("cases", {}):
        problems.append(f"service: {WARM_CASE}: missing from both files")
    else:
        speedup = carrier["cases"][WARM_CASE]["speedup"]
        if speedup < WARM_FLOOR:
            problems.append(
                f"service: {WARM_CASE} ({where}): warm-session speedup "
                f"{speedup:.2f}x below the {WARM_FLOOR}x floor over a "
                "cold start"
            )

    # zero loss below the measured saturation point, on the fresh run
    load_cells = {
        k: c for k, c in fresh.get("cases", {}).items()
        if c.get("kind") == "load"
    }
    if not load_cells:
        problems.append("service: fresh run has no load cells")
        return problems
    saturation_rps = fresh.get("saturation", {}).get("offered_rps", 0.0)
    if saturation_rps <= 0.0:
        problems.append(
            "service: fresh run absorbed no offered rate cleanly "
            "(saturation point is 0 rps)"
        )
    for key, case in sorted(load_cells.items()):
        if case["offered_rps"] > saturation_rps:
            continue  # above the knee: rejects are the designed answer
        lost = case["dropped"] + case["errors"]
        if lost:
            problems.append(
                f"service: {key}: {case['dropped']} dropped + "
                f"{case['errors']} errored responses below the "
                f"{saturation_rps:g} rps saturation point (must be zero)"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", type=Path, nargs="?", default=BASELINE,
                        help="fresh bench_kernels.py output (default: "
                        "self-check the committed baseline)")
    parser.add_argument("--baseline", type=Path, default=BASELINE)
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional speedup drop (default 0.20)")
    parser.add_argument("--parallel", type=Path, default=PARALLEL_BASELINE,
                        help="fresh bench_parallel.py output (default: "
                        "self-check the committed parallel baseline)")
    parser.add_argument("--parallel-baseline", type=Path,
                        default=PARALLEL_BASELINE)
    parser.add_argument("--service", type=Path, default=SERVICE_BASELINE,
                        help="fresh bench_service.py output (default: "
                        "self-check the committed service baseline)")
    parser.add_argument("--service-baseline", type=Path,
                        default=SERVICE_BASELINE)
    args = parser.parse_args(argv)

    fresh = load(args.fresh)
    baseline = load(args.baseline)
    problems = check(fresh, baseline, args.tolerance)
    problems += check_parallel(
        load(args.parallel), load(args.parallel_baseline)
    )
    problems += check_service(
        load(args.service), load(args.service_baseline)
    )
    if problems:
        for line in problems:
            print(f"PERF REGRESSION: {line}")
        return 1
    n = len(set(baseline["cases"]) & set(fresh["cases"]))
    print(
        f"perf gate passed: per-kernel geomeans over {n} shared case(s) "
        f"within {args.tolerance:.0%} of baseline; "
        f"{', '.join(k.split('-')[0] for k in ABS_CASES)} hold the "
        f"{ABS_FLOOR:.0f}x floor at n=2000, s=0.1, p=16; executor "
        f"overlap cells hold the {OVERLAP_FLOOR}x concurrency floor; "
        f"supervision overhead within {SUPERVISED_OVERHEAD_MAX:.0%}; "
        f"warm sessions hold the {WARM_FLOOR}x floor with zero loss "
        "below saturation"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
