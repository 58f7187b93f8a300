#!/usr/bin/env python3
"""The repository's benchmark: three workloads, checked outputs, one line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload direct-grid-n2000 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, timed in CPU time (their
wall-clock counterparts are in the detail line); ``--trace 1`` runs the
same workload with timing wrappers around each layer's public functions
and prints the per-layer metrics instead.  The last line of standard output
is always one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the details (host fingerprint,
CPU time the hypervisor took during the run, sample counts, the tail
percentile used, the base of every ratio).

``--write-golden`` pins the program's current one-shot outputs in
perfbench/golden.json; every unit is checked against them, so run it
only when a change to the simulated ledger is intended.

``--steadiness ROUNDS`` runs every workload ROUNDS times in alternating
order, each with its own seed, and prints each end-to-end metric's
median, quartiles and spread against its bound in BENCHMARK.json.

The program is driven only through ``RunSession.run``, ``repro serve``
and ``run_sweep``; nothing under ``src/`` is changed.  See
perfbench/LAYERS.md for what each metric means and should move.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# numpy asks the kernel to back large arrays with huge pages, and whether
# it gets them depends on how fragmented the host's memory is: within one
# set of ten direct-grid runs the peak read 93.7 or 97.0 MB.  Without the
# request every run of a set read the same peak to 0.2 MB (the runs were
# 5-15% slower).  Set before numpy loads; servers and workers inherit it.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

sys.path.insert(0, str(HERE))

from harness.host import fingerprint, pin_one_cpu, static_malloc, steal_s  # noqa: E402

# before numpy's first large array; servers and workers inherit it too
STATIC_MALLOC = static_malloc()

from harness import checks, direct, served, sweep  # noqa: E402
from harness.metrics import spread  # noqa: E402
from harness.report import END_TO_END, PER_LAYER, finish  # noqa: E402
from harness.workloads import WORKLOADS  # noqa: E402


class ProgramMissing(RuntimeError):
    pass


def import_program() -> None:
    """Put ``src/`` first on the path and check ``repro`` comes from it."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no program to benchmark: {package} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"imported repro from {repro.__file__}, not {package}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    drive = {"closed": direct.run_direct, "served": served.run_served,
             "sweep": sweep.run_sweep_workload}[workload.kind]
    host = fingerprint()
    cpu = pin_one_cpu()
    stolen = steal_s()
    outcome = drive(workload, seed, seconds, trace)
    stolen = steal_s() - stolen
    metrics, bases = finish(outcome.values, PER_LAYER if trace else END_TO_END)
    tally = outcome.tally
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "host": host, "pinned_cpu": cpu, "steal_s": stolen, "bases": bases,
        "static_malloc": STATIC_MALLOC,
        "error_rate": {
            "value": tally.failed / tally.attempted if tally.attempted else 0.0,
            "failed": tally.failed, "base": tally.attempted, "of": "units attempted",
        },
        "errors": tally.errors, **outcome.detail,
    }
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def steadiness(rounds: int, seconds: float) -> int:
    """Alternate the workloads ``rounds`` times and report each metric's
    spread against its bound; exit 1 when a spread exceeds a third of
    its bound (set-up time excepted, as in the acceptance rule)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = list(WORKLOADS)
    values: dict[str, dict[str, list[float]]] = {n: {} for n in names}
    print(json.dumps({"rounds": rounds, "seconds": seconds, "host": fingerprint()},
                     sort_keys=True), flush=True)
    for r in range(rounds):
        order = names if r % 2 == 0 else names[::-1]
        for name in order:
            seed = 1000 + r
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if out.returncode != 0:
                print(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                return 2
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect ({result['failed']} failed)")
                return 2
            for metric, v in result["metrics"].items():
                values[name].setdefault(metric, []).append(v["value"])
            print(f"round {r} {name}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()), flush=True)
    worst = 0
    print(f"{'workload':<20} {'metric':<18} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for name in names:
        for metric, vals in values[name].items():
            q1, q2, q3, s = spread(vals)
            bound = bounds.get(metric, 0.0)
            flag = ""
            if metric != "setup_s" and s > bound / 3:
                flag = "  over a third of its bound"
                worst = 1
            print(f"{name:<20} {metric:<18} {q2:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{s:>7.3f} {bound:>6.2f}{flag}")
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="ROUNDS", default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="pin the program's current outputs in perfbench/golden.json")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.write_golden:
        print(f"pinned {checks.write_golden()} one-shot results in {checks.GOLDEN}")
        return 0
    if args.steadiness:
        return steadiness(args.steadiness, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
