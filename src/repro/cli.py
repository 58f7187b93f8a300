"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``        distribute one generated array and print the phase times
``tables``     reproduce the paper's Tables 3–5 next to the published numbers
``figures``    print the Figures 1–7 worked example artefacts
``crossover``  print the Remark-5 thresholds and exact model crossovers
``sweep``      sweep s / T_Data/T_Op / p / n and chart the scheme costs
``analyze``    memory footprints, break-even iterations, format advice
``collection`` sparse-ratio statistics of the synthetic HB-style collection
``report``     write EXPERIMENTS.md (paper-vs-measured for everything)
``inspect``    render the comm matrix / top spans of a saved JSONL run log
``serve``      run the throughput run-service (JSONL protocol + /metrics)
``load``       drive a running service with deterministic seeded load
``lint``       run the reprolint static-analysis rules (RL001–RL006)
"""

from __future__ import annotations

import argparse
from typing import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Data Distribution Schemes of Sparse Arrays "
            "on Distributed Memory Multicomputers' (ICPP 2002)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="distribute one array, print phase times")
    run.add_argument("--scheme", choices=["sfc", "cfs", "ed", "all"], default="all")
    run.add_argument("--n", type=int, default=1000, help="array is n x n")
    run.add_argument("--procs", type=int, default=16)
    run.add_argument(
        "--partition", choices=["row", "column", "mesh2d"], default="row"
    )
    run.add_argument("--compression", choices=["crs", "ccs"], default="crs")
    run.add_argument("--sparse-ratio", type=float, default=0.1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--timeline", action="store_true",
        help="print a per-lane ASCII busy timeline for the last scheme",
    )
    run.add_argument(
        "--faults", metavar="SPEC.json", default=None,
        help="fault plan (JSON FaultSpec) enabling fault injection and "
        "reliable delivery; see examples/faults/lossy.json",
    )
    run.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the deterministic fault injector (default 0)",
    )
    run.add_argument(
        "--recovery", choices=["off", "host-resend", "peer-redistribute"],
        default="off",
        help="fail-stop recovery policy: repair rank deaths from the fault "
        "plan's fail_stop spec on the surviving processors (needs --faults)",
    )
    run.add_argument(
        "--backend", metavar="NAME", default=None,
        help="kernel backend the hot paths run on (numpy | python); results "
        "are byte-identical either way, only wall-clock differs "
        "(default: the process default, numpy)",
    )
    run.add_argument(
        "--executor", metavar="NAME", default=None,
        help="executor rank tasks run on (sim | process); results are "
        "byte-identical either way — process runs one OS process per "
        "rank (default: $REPRO_EXECUTOR, else sim)",
    )
    run.add_argument(
        "--supervise", metavar="SPEC.json", default=None,
        help="supervise the process executor against real faults (JSON "
        "SuperviseSpec: deadlines, restart budget, degradation); needs "
        "--executor process; see examples/supervise/default.json",
    )
    run.add_argument(
        "--trace-out", metavar="TRACE.json", default=None,
        help="write a Chrome trace-event JSON of the last scheme's run "
        "(open in ui.perfetto.dev or chrome://tracing); enables "
        "observability for the run",
    )
    run.add_argument(
        "--metrics-out", metavar="METRICS.prom", default=None,
        help="write the last scheme's metrics registry in Prometheus text "
        "format; enables observability for the run",
    )
    run.add_argument(
        "--log-out", metavar="RUN.jsonl", default=None,
        help="write the last scheme's full observability state as a JSONL "
        "run log readable by `repro inspect`; enables observability",
    )

    tables = sub.add_parser("tables", help="reproduce Tables 3-5")
    tables.add_argument(
        "table",
        nargs="?",
        choices=["table3", "table4", "table5", "all"],
        default="all",
    )
    tables.add_argument(
        "--quick", action="store_true", help="restrict to n <= 800, two p values"
    )
    tables.add_argument(
        "--faults", metavar="SPEC.json", default=None,
        help="re-derive the tables under a fault plan (JSON FaultSpec)",
    )
    tables.add_argument("--fault-seed", type=int, default=0)
    tables.add_argument(
        "--backend", metavar="NAME", default=None,
        help="kernel backend for every cell (numpy | python); results are "
        "byte-identical either way",
    )
    tables.add_argument(
        "--executor", metavar="NAME", default=None,
        help="executor for every cell (sim | process); results are "
        "byte-identical either way",
    )
    tables.add_argument(
        "--supervise", metavar="SPEC.json", default=None,
        help="supervise the process executor against real faults for "
        "every cell (JSON SuperviseSpec); needs --executor process",
    )

    sub.add_parser("figures", help="print the Figures 1-7 worked example")

    crossover = sub.add_parser(
        "crossover", help="Remark-5 thresholds and exact crossovers"
    )
    crossover.add_argument("--n", type=int, default=1000)
    crossover.add_argument("--procs", type=int, default=16)
    crossover.add_argument("--sparse-ratio", type=float, default=0.1)
    crossover.add_argument(
        "--partition", choices=["row", "column", "mesh2d"], default="row"
    )

    sweep_p = sub.add_parser(
        "sweep",
        help="run a manifest of experiment cells, or sweep a model knob",
    )
    sweep_p.add_argument(
        "parameter", metavar="MANIFEST.json | s|ratio|p|n",
        help="an experiment manifest to run into a result store, or a "
        "model knob to chart (sparse ratio, T_Data/T_Op, processors, size)",
    )
    sweep_p.add_argument("--start", type=float, default=None)
    sweep_p.add_argument("--stop", type=float, default=None)
    sweep_p.add_argument(
        "--store", metavar="RESULTS.jsonl", default=None,
        help="result store path (manifest mode; default: the manifest "
        "path with a .results.jsonl suffix)",
    )
    sweep_p.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted sweep: skip committed cells, "
        "re-run a torn final record (manifest mode)",
    )
    sweep_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="cells to run concurrently, one worker process per cell "
        "(manifest mode; default 1 = in-process)",
    )
    sweep_p.add_argument(
        "--executor", choices=["sim", "process"], default=None,
        help="executor every cell's rank tasks run on (manifest mode; "
        "placement only — results and the store are identical either way)",
    )
    sweep_p.add_argument("--points", type=int, default=20)
    sweep_p.add_argument("--n", type=int, default=500)
    sweep_p.add_argument("--procs", type=int, default=8)
    sweep_p.add_argument("--sparse-ratio", type=float, default=0.1)
    sweep_p.add_argument(
        "--partition", choices=["row", "column", "mesh2d"], default="row"
    )
    sweep_p.add_argument("--compression", choices=["crs", "ccs"], default="crs")
    sweep_p.add_argument(
        "--metric",
        choices=["t_total", "t_distribution", "t_compression"],
        default="t_total",
    )
    sweep_p.add_argument(
        "--simulate", action="store_true",
        help="run the simulator at each point instead of the closed forms",
    )

    analyze = sub.add_parser(
        "analyze", help="memory, break-even and format advice for a workload"
    )
    analyze.add_argument("--n", type=int, default=1000)
    analyze.add_argument("--procs", type=int, default=16)
    analyze.add_argument("--sparse-ratio", type=float, default=0.1)
    analyze.add_argument("--seed", type=int, default=0)

    collection = sub.add_parser(
        "collection", help="sparse-ratio stats of the synthetic collection"
    )
    collection.add_argument("--count", type=int, default=100)
    collection.add_argument("--seed", type=int, default=20020101)

    report = sub.add_parser("report", help="write EXPERIMENTS.md")
    report.add_argument("path", nargs="?", default="EXPERIMENTS.md")
    report.add_argument(
        "--store", metavar="RESULTS.jsonl", default=None,
        help="persistent sweep store for the table grids: resumes it if "
        "partial, reuses it verbatim if complete (default: a temporary "
        "store, discarded after rendering)",
    )

    inspect_p = sub.add_parser(
        "inspect", help="render a saved JSONL run log (comm matrix, top spans)"
    )
    inspect_p.add_argument(
        "log", metavar="RUN.jsonl",
        help="run log written by `repro run --log-out RUN.jsonl`",
    )
    inspect_p.add_argument(
        "--top", type=int, default=5,
        help="how many spans to show, slowest (simulated) first (default 5)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the throughput run-service (JSONL requests + GET /metrics)",
    )
    serve.add_argument(
        "--socket", metavar="PATH", default=None,
        help="listen on a unix socket at PATH (exclusive with --port)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="TCP bind address (default 127.0.0.1; only with --port)",
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help="TCP port to listen on (0 = pick a free port; "
        "default 7027 when --socket is not given)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent run workers draining the queue (default 2)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=64,
        help="bounded queue capacity; beyond it requests get a typed 429 "
        "reject line (default 64)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=8,
        help="warm RunSession pool bound, LRU-evicted (default 8)",
    )
    serve.add_argument(
        "--backend", metavar="NAME", default=None,
        help="default kernel backend for requests that do not pick one "
        "(numpy | python); results are byte-identical either way",
    )
    serve.add_argument(
        "--executor", metavar="NAME", default=None,
        help="default executor for requests that do not pick one (sim | "
        "process); results are byte-identical either way",
    )

    load = sub.add_parser(
        "load",
        help="drive a running service with a deterministic seeded load",
    )
    load.add_argument(
        "--socket", metavar="PATH", default=None,
        help="connect to a unix socket at PATH (exclusive with --port)",
    )
    load.add_argument("--host", default="127.0.0.1")
    load.add_argument(
        "--port", type=int, default=None,
        help="TCP port the service listens on (default 7027 without --socket)",
    )
    load.add_argument(
        "--rps", type=float, default=50.0,
        help="offered request rate, open-loop (default 50)",
    )
    load.add_argument(
        "--duration", type=float, default=5.0,
        help="seconds to keep offering load (default 5)",
    )
    load.add_argument(
        "--seed", type=int, default=0,
        help="request-stream seed; the same seed replays byte-identical "
        "traffic (default 0)",
    )
    load.add_argument(
        "--n", type=int, default=120, help="array size per request (default 120)"
    )
    load.add_argument(
        "--procs", type=int, default=4,
        help="processors per request (default 4)",
    )

    lint_p = sub.add_parser(
        "lint",
        help="prove the repo's invariants statically (rules RL001-RL006)",
    )
    from .analysis.cli import add_lint_arguments

    add_lint_arguments(lint_p)

    return parser


class UsageError(SystemExit):
    """Bad user input: one friendly ``error:`` line, exit status 2."""

    def __init__(self, message: str) -> None:
        print(f"error: {message}")
        super().__init__(2)


def _load_spec(path, spec_type, what):
    """Parse a JSON spec file (``--faults`` / ``--supervise``) or return None.

    Missing files, malformed JSON, unknown spec keys and out-of-range
    values all exit with a single friendly line instead of a traceback —
    the file is user input, not programmer input.
    """
    if path is None:
        return None
    import json

    try:
        return spec_type.from_file(path)
    except FileNotFoundError:
        raise UsageError(f"{what} {path!r} does not exist")
    except IsADirectoryError:
        raise UsageError(f"{what} {path!r} is a directory")
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{what} {path!r} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}: {exc.msg})"
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{what} {path!r} is invalid: {exc}")


#: the smallest valid run: validates the options of commands that start
#: no single run (placement, fault and supervision specs) like `run` does
_ANY_RUN = {"scheme": "sfc", "n": 1, "n_procs": 1}


def _request(args, **fields):
    """``fields`` plus the command's fault/recovery/placement options as
    one validated :class:`~repro.runtime.RunRequest`.

    The effective backend and executor — the flag, else
    ``REPRO_KERNEL_BACKEND`` / ``REPRO_EXECUTOR`` — go through the same
    validator as every other field, so a bad value from either source
    exits with one line (:class:`UsageError`).
    """
    from .exec import SuperviseSpec, current_executor_name
    from .faults import FaultSpec
    from .kernels import current_backend_name
    from .runtime import RequestError, RunRequest

    recovery = getattr(args, "recovery", "off")
    data = {
        **fields,
        "faults": _load_spec(getattr(args, "faults", None), FaultSpec, "fault spec"),
        "fault_seed": getattr(args, "fault_seed", None),
        "recovery": None if recovery == "off" else recovery,
        "backend": getattr(args, "backend", None),
        "executor": getattr(args, "executor", None),
        "supervise": _load_spec(
            getattr(args, "supervise", None), SuperviseSpec, "supervise spec"
        ),
    }
    defaults = {"backend": current_backend_name(), "executor": current_executor_name()}
    try:
        return RunRequest.from_dict(data, defaults=defaults)
    except RequestError as exc:
        raise UsageError(str(exc)) from None


def _print_fault_summary(result) -> None:
    """Surface retries/drops/corruptions per phase for one scheme run."""
    print(f"    {result.fault_line()}")
    if result.fault_summary:
        for phase, bucket in result.fault_summary.items():
            counters = " ".join(f"{k}={v}" for k, v in bucket.items())
            print(f"      {phase}: {counters}")


def _cmd_run(args) -> int:
    from dataclasses import replace

    from .exec import WorkerCrashError
    from .machine import render_timeline
    from .runtime import RunSession, verify_all_schemes_agree

    schemes = ["sfc", "cfs", "ed"] if args.scheme == "all" else [args.scheme]
    base = _request(
        args, scheme=schemes[0], n=args.n, n_procs=args.procs,
        partition=args.partition, compression=args.compression,
        sparse_ratio=args.sparse_ratio, seed=args.seed,
    )
    observe = any((args.trace_out, args.metrics_out, args.log_out))
    print(
        f"array {args.n}x{args.n}, s={args.sparse_ratio}, p={args.procs}, "
        f"{args.partition} partition, {args.compression.upper()} compression"
    )
    fault_spec = base.faults
    if fault_spec is not None:
        print(
            f"fault injection on (seed {args.fault_seed}): "
            f"drop={fault_spec.drop} dup={fault_spec.duplicate} "
            f"reorder={fault_spec.reorder} corrupt={fault_spec.corrupt}"
        )
    results = []
    obs = None
    with RunSession() as session:
        matrix = session.matrix_for(base)
        for scheme in schemes:
            request = replace(base, scheme=scheme)
            obs = None
            if observe or (args.timeline and scheme == schemes[-1]):
                from .obs import Observability

                # one recorder per scheme run (the verification contract
                # compares against exactly one run's trace); --timeline
                # renders the last one's
                obs = Observability(
                    scheme=scheme, n=args.n, sparse_ratio=args.sparse_ratio,
                    partition=args.partition, compression=args.compression,
                    seed=args.seed,
                )
            try:
                result = session.run(request, matrix=matrix, obs=obs)
            except WorkerCrashError as exc:
                # degrade=false and the restart budget ran out: one friendly
                # line (which rank, which task) instead of a traceback
                print(f"error: {exc}")
                return 2
            results.append(result)
            print(f"  {result.summary()}")
            if fault_spec is not None:
                _print_fault_summary(result)
            if result.recovery_summary is not None:
                print(f"    {result.recovery_line()}")
            if (
                result.supervisor_summary is not None
                and not result.supervisor_summary.clean
            ):
                print(f"    {result.supervisor_line()}")
    if len(results) > 1:
        verify_all_schemes_agree(results)
        print("  all schemes delivered identical local arrays (verified)")
    if args.timeline and obs is not None and obs.trace is not None:
        print()
        print(render_timeline(obs.trace))
    if observe and obs is not None:
        from .obs import write_chrome_trace, write_jsonl, write_prometheus

        if args.trace_out:
            write_chrome_trace(obs, args.trace_out)
            print(f"wrote Chrome trace to {args.trace_out} (open in ui.perfetto.dev)")
        if args.metrics_out:
            write_prometheus(obs, args.metrics_out)
            print(f"wrote Prometheus metrics to {args.metrics_out}")
        if args.log_out:
            write_jsonl(obs, args.log_out)
            print(f"wrote run log to {args.log_out} (repro inspect {args.log_out})")
    return 0


def _cmd_inspect(args) -> int:
    from .obs import inspect_run_log

    try:
        print(inspect_run_log(args.log, top=args.top))
    except FileNotFoundError:
        print(f"error: run log {args.log!r} does not exist")
        return 2
    except IsADirectoryError:
        print(f"error: run log {args.log!r} is a directory")
        return 2
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    return 0


def _cmd_tables(args) -> int:
    from .exec import use_supervision
    from .runtime import TABLE3_SIZES, TABLE5_SIZES, format_table, shape_report
    from .sweep import Manifest, paper_tables_manifest, sweep_records, table_from_store
    from .sweep.report import TABLE_PARTITIONS

    placement = _request(args, **_ANY_RUN)
    names = ["table3", "table4", "table5"] if args.table == "all" else [args.table]
    # --quick: n <= 800 and the first two processor counts of each grid
    quick = dict(
        sizes=[n for n in TABLE3_SIZES if n <= 800], proc_counts=(4, 16),
        mesh_sizes=[n for n in TABLE5_SIZES if n <= 800], mesh_proc_counts=(4, 16),
    ) if args.quick else {}
    data = paper_tables_manifest(**quick).to_dict()
    wanted = {TABLE_PARTITIONS[name] for name in names}
    grids = []
    for grid in data["grids"]:
        grid["partition"] = [p for p in grid["partition"] if p in wanted]
        if grid["partition"]:
            if placement.faults is not None:
                grid["faults"] = placement.faults.to_dict()
                grid["fault_seed"] = placement.fault_seed
            grids.append(grid)
    manifest = Manifest.from_dict({**data, "grids": grids})
    with use_supervision(placement.supervise):
        records = sweep_records(
            manifest, executor=placement.executor, backend=placement.backend
        )
    for name in names:
        repro = table_from_store(records, name)
        print(format_table(repro))
        print(f"   shape report: {shape_report(repro)}")
        if placement.faults is not None:
            totals = repro.fault_totals()
            print(f"   fault totals (seed {args.fault_seed}):")
            for phase, bucket in totals.items():
                counters = " ".join(f"{k}={v}" for k, v in bucket.items())
                print(f"     {phase}: {counters}")
        print()
    return 0


def _cmd_figures(args) -> int:
    import runpy
    from pathlib import Path

    script = Path(__file__).resolve().parents[2] / "examples" / "paper_figures.py"
    if script.exists():
        runpy.run_path(str(script), run_name="__main__")
        return 0
    # installed without the examples tree: inline minimal rendering
    from .data import sparse_array_A
    from .partition import RowPartition
    from .sparse import CRSMatrix

    A = sparse_array_A()
    print("Figure 1 — sparse array A (10x8, 16 nonzeros)")
    plan = RowPartition().plan(A.shape, 4)
    for a, loc in zip(plan, plan.extract_all(A)):
        c = CRSMatrix.from_coo(loc)
        print(f"  P{a.rank}: RO={c.RO.tolist()} CO={c.CO.tolist()} VL={c.VL.tolist()}")
    return 0


def _cmd_crossover(args) -> int:
    from .machine import ratio_cost_model
    from .model import (
        ProblemSpec,
        data_op_ratio_crossover,
        remark5_thresholds,
        sparse_ratio_crossover,
    )

    spec = ProblemSpec(
        n=args.n, p=args.procs, s=args.sparse_ratio, cost=ratio_cost_model(1.0)
    )
    ed_thr, cfs_thr = remark5_thresholds(spec, args.partition)
    print(
        f"Remark 5 asymptotic thresholds ({args.partition}, s={args.sparse_ratio}):"
    )
    print(f"  ED  beats SFC overall when T_Data/T_Op > {ed_thr:.4f}")
    print(f"  CFS beats SFC overall when T_Data/T_Op > {cfs_thr:.4f}")
    for scheme in ("ed", "cfs"):
        star = data_op_ratio_crossover(
            spec, scheme, "sfc", partition=args.partition
        )
        print(
            f"  exact finite-size crossover for {scheme.upper()}: "
            + (f"{star:.4f}" if star else "none in range")
        )
    from .machine import sp2_cost_model

    s_star = sparse_ratio_crossover(
        spec.with_cost(sp2_cost_model()), "ed", "sfc", partition=args.partition
    )
    print(
        "  sparse-ratio crossover at the SP2 ratio (1.2): "
        + (f"s* = {s_star:.4f}" if s_star else "none in range")
    )
    return 0


def _cmd_sweep_manifest(args) -> int:
    """Manifest mode: run (or resume) the grid into a JSONL result store."""
    from pathlib import Path

    from .sweep import Manifest, ManifestError, StoreError, SweepError, run_sweep

    placement = _request(args, **_ANY_RUN)
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    try:
        manifest = Manifest.from_file(args.parameter)
    except ManifestError as exc:
        raise UsageError(str(exc))
    store_path = (
        Path(args.store)
        if args.store is not None
        else Path(args.parameter).with_suffix(".results.jsonl")
    )
    try:
        report = run_sweep(
            manifest,
            store_path,
            resume=args.resume,
            jobs=args.jobs,
            executor=placement.executor,
            echo=print,
        )
    except (ManifestError, StoreError) as exc:
        raise UsageError(str(exc))
    except SweepError as exc:
        print(f"error: {exc}")
        return 1
    print(
        f"sweep {manifest.name!r}: {report.executed} cell(s) run, "
        f"{report.skipped} resumed, {report.total} total -> {report.store_path}"
    )
    return 0


def _cmd_sweep(args) -> int:
    if args.parameter not in ("s", "ratio", "p", "n"):
        return _cmd_sweep_manifest(args)
    if args.start is None or args.stop is None:
        raise UsageError(
            f"knob sweeps over {args.parameter!r} need --start and --stop"
        )
    import numpy as np

    from .machine import sp2_cost_model
    from .model import ProblemSpec, sweep
    from .runtime import ascii_chart

    spec = ProblemSpec(
        n=args.n, p=args.procs, s=args.sparse_ratio, cost=sp2_cost_model()
    )
    values = np.linspace(args.start, args.stop, args.points)
    result = sweep(
        spec,
        args.parameter,
        values,
        partition=args.partition,
        compression=args.compression,
        metric=args.metric,
        simulate=args.simulate,
    )
    print(ascii_chart(result))
    crossings = result.crossover_indices()
    if crossings:
        points = ", ".join(f"{result.series[0].x[i]:.4g}" for i in crossings)
        print(f"winner changes near {args.parameter} = {points}")
    else:
        print(f"{result.winner_at(0).upper()} wins across the whole range")
    return 0


def _cmd_analyze(args) -> int:
    from .model import ProblemSpec, amortization, memory_footprint
    from .sparse import random_sparse, suggest_format, score_formats

    spec = ProblemSpec(n=args.n, p=args.procs, s=args.sparse_ratio)
    print(f"workload: {args.n}x{args.n}, s={args.sparse_ratio}, p={args.procs}\n")

    print("peak memory (array elements):")
    for scheme in ("sfc", "cfs", "ed"):
        m = memory_footprint(spec, scheme)
        print(
            f"  {scheme.upper():>3}: receiver {m.proc_peak:>12.0f} "
            f"(transient {m.proc_overhead:.0f})   host extra {m.host_peak:>12.0f}"
        )

    rep = amortization(spec)
    print("\namortisation (row partition, CRS):")
    for scheme in ("sfc", "cfs", "ed"):
        print(f"  {scheme.upper():>3} setup: {rep.setup[scheme]:10.3f} ms")
    print(f"  per-SpMV iteration: {rep.iteration:.3f} ms")
    print(
        f"  schemes within 5% of each other after "
        f"{rep.iterations_to_5_percent} iterations"
    )

    matrix = random_sparse((args.n, args.n), args.sparse_ratio, seed=args.seed)
    print(f"\nstorage-format advice for this workload: "
          f"{suggest_format(matrix).upper()}")
    for s in score_formats(matrix):
        print(f"  {s.format:>4}: {s.overhead:6.2f} stored elements per nonzero")
    return 0


def _cmd_collection(args) -> int:
    from .sparse import SyntheticCollection, ratio_statistics

    col = SyntheticCollection(args.count, seed=args.seed)
    stats = ratio_statistics(col.entries())
    print(f"synthetic Harwell-Boeing-style collection ({args.count} matrices):")
    for key, value in stats.items():
        print(f"  {key}: {value:.4f}" if isinstance(value, float) else f"  {key}: {value}")
    print(
        "  (the paper's Remark 2 premise: >80% of applications have s < 0.1)"
    )
    return 0


def _cmd_report(args) -> int:
    from .runtime.report import main as report_main

    argv = ["report", args.path]
    if args.store is not None:
        argv += ["--store", args.store]
    return report_main(argv)


def _service_endpoint(args):
    """``(socket_path, host, port)`` from --socket/--host/--port.

    ``--socket`` and ``--port`` are exclusive; with neither, the TCP
    default port 7027 is used so `repro serve` and `repro load` pair up
    out of the box.
    """
    if args.socket is not None and args.port is not None:
        raise UsageError("--socket and --port are exclusive; pick one")
    if args.socket is not None:
        return args.socket, None, None
    port = args.port if args.port is not None else 7027
    if not 0 <= port <= 65535:
        raise UsageError(f"--port must be in [0, 65535], got {port}")
    return None, args.host, port


def _cmd_serve(args) -> int:
    import asyncio

    from .service import RunService

    placement = _request(args, **_ANY_RUN)
    socket_path, host, port = _service_endpoint(args)
    for name, floor in (("workers", 1), ("queue_size", 1), ("max_sessions", 1)):
        value = getattr(args, name)
        if value < floor:
            raise UsageError(
                f"--{name.replace('_', '-')} must be >= {floor}, got {value}"
            )

    async def _serve() -> None:
        service = RunService(
            host=host or "127.0.0.1",
            port=port,
            socket_path=socket_path,
            workers=args.workers,
            queue_size=args.queue_size,
            max_sessions=args.max_sessions,
            backend=placement.backend,
            executor=placement.executor,
        )
        await service.start()
        kind = "unix socket" if socket_path is not None else "tcp"
        print(
            f"repro service listening on {kind} {service.address} "
            f"(workers={args.workers} queue={args.queue_size} "
            f"sessions<={args.max_sessions}); GET /metrics for Prometheus, "
            "ctrl-c to stop",
            flush=True,
        )
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.stop()
            print("repro service stopped", flush=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_load(args) -> int:
    from .service import run_load

    socket_path, host, port = _service_endpoint(args)
    if args.rps <= 0:
        raise UsageError(f"--rps must be > 0, got {args.rps}")
    if args.duration <= 0:
        raise UsageError(f"--duration must be > 0, got {args.duration}")
    if args.n < 1 or args.procs < 1:
        raise UsageError("--n and --procs must be >= 1")
    try:
        report = run_load(
            rps=args.rps,
            duration_s=args.duration,
            seed=args.seed,
            host=host or "127.0.0.1",
            port=port,
            socket_path=socket_path,
            n=args.n,
            n_procs=args.procs,
        )
    except (ConnectionError, OSError) as exc:
        where = socket_path if socket_path is not None else f"{host}:{port}"
        raise UsageError(f"cannot reach a service at {where}: {exc}")
    print(report.line())
    if report.dropped or report.errors:
        print(
            f"error: {report.dropped} response(s) dropped, "
            f"{report.errors} failed"
        )
        return 1
    return 0


def _cmd_lint(args) -> int:
    from .analysis.cli import cmd_lint

    return cmd_lint(args)


_COMMANDS = {
    "run": _cmd_run,
    "tables": _cmd_tables,
    "figures": _cmd_figures,
    "crossover": _cmd_crossover,
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "collection": _cmd_collection,
    "report": _cmd_report,
    "inspect": _cmd_inspect,
    "serve": _cmd_serve,
    "load": _cmd_load,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
