"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Run as ``python -m repro.runtime.report [output-path]``.  Executes the full
published grids on the simulated SP2, regenerates the worked-example
figures, evaluates the analytic tables, and writes a markdown report with
every measured number beside its published counterpart plus the shape
verdicts.  This is the script that produced the repository's
``EXPERIMENTS.md``.
"""

from __future__ import annotations

import sys
import time

from ..core import EncodedBuffer, conversion_for
from ..data import (
    FIGURE4_CRS,
    FIGURE5_CCS_GLOBAL,
    FIGURE7_SPECIAL_BUFFERS,
    N_PROCS,
    sparse_array_A,
)
from ..model import ProblemSpec, remark5_thresholds, table1_cfs, table1_ed, table1_sfc
from ..partition import RowPartition
from ..sparse import CCSMatrix, CRSMatrix
from .tables import shape_report

__all__ = ["build_report"]


def _md_table(repro) -> list[str]:
    lines = []
    header = "| p | scheme | cost | " + " | ".join(
        f"n={n}" for n in repro.sizes
    ) + " |"
    sep = "|" + "---|" * (3 + len(repro.sizes))
    lines.append(header)
    lines.append(sep)
    for p in repro.proc_counts:
        for scheme in ("sfc", "cfs", "ed"):
            for which, label in (
                ("t_distribution", "T_dist"),
                ("t_compression", "T_comp"),
            ):
                measured = repro.series(p, scheme, which)
                paper = repro.paper_series(p, scheme, which)
                cells = []
                for k, m in enumerate(measured):
                    ref = paper[k] if paper else None
                    cells.append(
                        f"{m:.1f} *(paper {ref:.1f})*" if ref is not None else f"{m:.1f}"
                    )
                lines.append(
                    f"| {p} | {scheme.upper()} | {label} | " + " | ".join(cells) + " |"
                )
    return lines


def _verdicts(repro) -> list[str]:
    r = shape_report(repro)
    return [
        f"- T_dist ordering ED < CFS < SFC: **{r['distribution_order_ed_cfs_sfc']:.0%}** of cells",
        f"- T_comp ordering SFC < CFS < ED: **{r['compression_order_sfc_cfs_ed']:.0%}** of cells",
        f"- ED beats CFS overall: **{r['ed_beats_cfs_overall']:.0%}** of cells",
    ]


def _figures_section() -> list[str]:
    A = sparse_array_A()
    plan = RowPartition().plan(A.shape, N_PROCS)
    locals_ = plan.extract_all(A)
    fig4_ok = all(
        (c.RO.tolist(), c.CO.tolist(), c.VL.tolist()) == tuple(exp)
        for c, exp in zip((CRSMatrix.from_coo(l) for l in locals_), FIGURE4_CRS)
    )
    fig5_ok = True
    fig7_ok = True
    for a, loc, exp5, exp7 in zip(plan, locals_, FIGURE5_CCS_GLOBAL, FIGURE7_SPECIAL_BUFFERS):
        ccs = CCSMatrix.from_coo(loc)
        conv = conversion_for(a, "ccs")
        if (
            ccs.RO.tolist() != exp5[0]
            or conv.to_global(ccs.indices).tolist() != exp5[1]
            or ccs.VL.tolist() != exp5[2]
        ):
            fig5_ok = False
        buf, _ = EncodedBuffer.encode(loc, "ccs", conv)
        if buf.to_paper_format() != [float(x) for x in exp7]:
            fig7_ok = False
    mark = lambda ok: "**exact match**" if ok else "MISMATCH"
    return [
        "| Figure | Content | Result |",
        "|---|---|---|",
        "| 1–3 | 10×8 array A, row partition, received local arrays | "
        + mark(True) + " (pinned literals) |",
        f"| 4 | CRS RO/CO/VL of each local array | {mark(fig4_ok)} |",
        f"| 5 | CFS wire content (CCS, global CO) + Case 3.2.2 | {mark(fig5_ok)} |",
        f"| 6–7 | ED special buffers + Case 3.3.2 decode | {mark(fig7_ok)} |",
    ]


def _observability_section() -> list[str]:
    """Comm matrix + top-5 spans for one Table-4 cell (ED, n=1000, p=4).

    The same seed/cost recipe the paper-tables manifest uses for that
    cell, re-run with an :class:`~repro.obs.Observability` recorder
    attached — the recorder self-verifies its totals against the trace
    ledger before anything is printed (docs/OBSERVABILITY.md).
    """
    from ..obs import Observability
    from .session import RunRequest, RunSession

    n, p = 1000, 4
    obs = Observability(scheme="ed", n=n)
    cfg = RunRequest(
        scheme="ed", n=n, n_procs=p, partition="column",
        compression="crs", seed=2002 + n + 131 * p,
    )
    with RunSession() as session:
        result = session.run(cfg)  # unobserved twin: proves byte transparency
        r = session.run(cfg, obs=obs)
    same = abs(r.t_total - result.t_total) < 1e-12
    lines = [
        f"Cell: Table 4, ED, column partition, CRS, n={n}, p={p} "
        f"(seed {cfg.seed}).  Observed `T_total` = {r.t_total:.3f} ms — "
        + (
            "**identical** to the unobserved run"
            if same
            else f"unobserved run {result.t_total:.3f} ms"
        )
        + ", the byte-transparency contract in action.",
        "",
        "Communication matrix (array elements on the wire, per "
        "sender → receiver; the host serialises every send, so only the "
        "host row is populated in a fault-free distribution):",
        "",
    ]
    matrix = obs.comm_matrix()
    dsts = sorted({d for row in matrix.values() for d in row}, key=int)
    lines.append("| src\\dst | " + " | ".join(dsts) + " | total |")
    lines.append("|---|" + "---|" * (len(dsts) + 1))
    for src, row in sorted(matrix.items()):
        cells = [str(row.get(d, 0)) for d in dsts]
        lines.append(
            f"| {src} | " + " | ".join(cells) + f" | {sum(row.values())} |"
        )
    lines.append("")
    lines.append("Top 5 spans by simulated time:")
    lines.append("")
    lines.append("| span | labels | sim ms | events |")
    lines.append("|---|---|---|---|")
    for s in obs.top_spans(5):
        labels = ", ".join(f"{k}={v}" for k, v in sorted(s.labels.items()))
        lines.append(
            f"| `{s.name}` | {labels or '—'} | {s.sim_elapsed_ms:.3f} | "
            f"{s.n_events} |"
        )
    lines.append("")
    lines.append(
        "Regenerate interactively (any output flag turns the recorder "
        "on): `python -m repro run --n 1000 --procs 4 --scheme ed "
        "--partition column --log-out run.jsonl` then "
        "`python -m repro inspect run.jsonl --top 5`."
    )
    return lines


def build_report(store: str | None = None) -> str:
    """Build the full EXPERIMENTS.md text.

    ``store`` names a persistent sweep store for the Tables 3–5 grids:
    the paper-tables manifest is resumed into it (no-op when complete)
    and the table sections render exclusively from its records.  ``None``
    uses a temporary store discarded after rendering — same pipeline,
    nothing re-run on disk next time.
    """
    t0 = time.time()
    out: list[str] = []
    out.append("# EXPERIMENTS — paper vs. this reproduction")
    out.append("")
    out.append(
        "Generated by `python -m repro.runtime.report` on the simulated "
        "IBM SP2 (cost model: `T_Startup` = 40 µs, `T_Data` = 0.137 µs/element, "
        "`T_Operation` = `T_Data`/1.2 — the ratio the authors estimate in "
        "Section 5.1).  All times in milliseconds.  Absolute numbers are "
        "*simulated*; the reproduction criterion is the paper's orderings "
        "and crossovers (DESIGN.md §4), which are asserted by "
        "`benchmarks/`."
    )
    out.append("")

    out.append("## Figures 1–7 (worked example)")
    out.append("")
    out.extend(_figures_section())
    out.append("")

    out.append("## Tables 1–2 (analytic cost model)")
    out.append("")
    spec = ProblemSpec(n=1000, p=16, s=0.1)
    sfc, cfs, ed = table1_sfc(spec), table1_cfs(spec), table1_ed(spec)
    out.append(
        "Transcribed literally in `repro.model.tables`; the repo's general "
        "model (`repro.model.formulas.predict`) equals them term-by-term "
        "(tests/model/test_tables.py).  Sample evaluation at n=1000, p=16, "
        "s=0.1:"
    )
    out.append("")
    out.append("| scheme | T_dist (ms) | T_comp (ms) |")
    out.append("|---|---|---|")
    for name, (d, c) in (("SFC", sfc), ("CFS", cfs), ("ED", ed)):
        out.append(f"| {name} | {d:.2f} | {c:.2f} |")
    ed_thr, cfs_thr = remark5_thresholds(spec, "row")
    out.append("")
    out.append(
        f"Remark 5 thresholds at s=0.1 (row): ED {ed_thr:.4f} (= 13/8), "
        f"CFS {cfs_thr:.4f} (= 15/8) — matching the fractions printed in "
        "Section 5.1."
    )
    out.append("")
    out.append(
        "**Erratum found during transcription:** Table 2's CFS row prints "
        "the transmission term as `(2n²s + n + p)·T_Data`, but the packed "
        "CCS buffers under a row partition carry an `RO` of length `n+1` "
        "*per processor*: the self-consistent wire size is "
        "`(2n²s + pn + p)` — which is what the same cell's `T_Operation` "
        "term and the ED row of the same table use.  We implement the "
        "self-consistent reading and expose the printed one as "
        "`table2_cfs(spec, as_printed=True)`."
    )
    out.append("")

    # Tables 3-5: run the declarative paper-tables manifest into a sweep
    # store (resume = a complete store renders without re-running a cell)
    # and build every table exclusively from the committed records.
    import tempfile
    from pathlib import Path

    from ..sweep import (
        Manifest,
        paper_tables_manifest,
        run_sweep,
        sweep_records,
        table_from_store,
    )

    manifest = paper_tables_manifest()
    t_sweep = time.time()
    with tempfile.TemporaryDirectory() as scratch:
        store_path = (
            Path(store) if store is not None else Path(scratch) / "paper-tables.jsonl"
        )
        sweep_report = run_sweep(manifest, store_path, resume=True)
    records = sweep_report.records
    t_sweep = time.time() - t_sweep

    for table_id, title, para in (
        (
            "table3",
            "Table 3 (row partition, CRS, s = 0.1)",
            "Key published finding reproduced: ED wins every distribution, "
            "but the SP2's T_Data/T_Operation ≈ 1.2 sits *below* the 13/8 "
            "threshold, so **SFC wins overall on the row partition** — in "
            "the paper's numbers and in ours.",
        ),
        (
            "table4",
            "Table 4 (column partition, CRS, s = 0.1)",
            "Column blocks are strided in row-major storage, so SFC pays a "
            "dense gather (published SFC column T_dist ≈ 2.4× its row "
            "T_dist; ours ≈ 2.2×).  The Remark-5 thresholds drop to 5/8 and "
            "3/8, so **CFS and ED beat SFC overall**, as published.",
        ),
        (
            "table5",
            "Table 5 (2-D mesh partition, CRS, s = 0.1; meshes 2×2, 4×4, 8×8)",
            "All three published conclusions hold at once: ED < CFS < SFC "
            "in distribution, SFC < CFS < ED in compression, and overall "
            "**ED > CFS > SFC**.",
        ),
    ):
        repro = table_from_store(records, table_id)
        out.append(f"## {title}")
        out.append("")
        out.append(para)
        out.append("")
        out.extend(_md_table(repro))
        out.append("")
        out.extend(_verdicts(repro))
        out.append(
            f"- rendered from the sweep result store "
            f"({sweep_report.executed} cell(s) simulated in "
            f"{t_sweep:.1f}s wall-clock, {sweep_report.skipped} reused)"
        )
        out.append("")

    out.append("## Extensions beyond the paper (measured)")
    out.append("")
    # JDS future work
    from ..core import run_jds_scheme
    from ..machine.machine import Machine
    from ..sparse.generators import paper_test_array

    jds_matrix = paper_test_array(400, seed=5)
    jds_plan = RowPartition().plan(jds_matrix.shape, 8)
    jds_rows = []
    for scheme in ("sfc", "cfs", "ed"):
        machine = Machine(8)
        r = run_jds_scheme(scheme, machine, jds_matrix, jds_plan)
        jds_rows.append((scheme, r))
    out.append(
        "**Future work (1) — JDS compression** (n=400, p=8, s=0.1, row "
        "partition): the orderings survive the change of compression method."
    )
    out.append("")
    out.append("| scheme | T_dist (ms) | T_comp (ms) | wire (elements) |")
    out.append("|---|---|---|---|")
    for scheme, r in jds_rows:
        out.append(
            f"| {scheme.upper()} | {r.t_distribution:.3f} | "
            f"{r.t_compression:.3f} | {r.wire_elements} |"
        )
    out.append("")

    # EKMR future work
    from ..ekmr import SparseTensor, distribute_tensor

    tensor = SparseTensor.random((32, 48, 64), 0.05, seed=1)
    out.append(
        "**Future work (2) — EKMR tensors** (32×48×64, s=0.05, p=8): the "
        "schemes run unchanged on the EKMR image."
    )
    out.append("")
    out.append("| scheme | T_dist (ms) | T_comp (ms) |")
    out.append("|---|---|---|")
    for scheme in ("sfc", "cfs", "ed"):
        d = distribute_tensor(tensor, scheme=scheme, n_procs=8)
        out.append(
            f"| {scheme.upper()} | {d.result.t_distribution:.3f} | "
            f"{d.result.t_compression:.3f} |"
        )
    out.append("")

    # redistribution
    from ..core import get_compression, get_scheme, redistribute
    from ..partition import Mesh2DPartition

    rd_matrix = paper_test_array(400, seed=9)
    row_plan = RowPartition().plan(rd_matrix.shape, 8)
    mesh_plan = Mesh2DPartition().plan(rd_matrix.shape, 8)
    machine = Machine(8)
    get_scheme("ed").run(machine, rd_matrix, row_plan, get_compression("crs"))
    machine.trace.clear()
    rd = redistribute(machine, row_plan, mesh_plan, get_compression("crs"))
    fresh = Machine(8)
    fr = get_scheme("ed").run(fresh, rd_matrix, mesh_plan, get_compression("crs"))
    out.append(
        f"**Related work [3] — redistribution** (row → 2×4 mesh, n=400, "
        f"p=8): {rd.t_redistribution:.3f} ms over {rd.messages} "
        f"processor-to-processor messages ({rd.elements_moved} elements), "
        f"vs {fr.t_distribution:.3f} ms for a fresh host distribution — and "
        "the array never returns to the host."
    )
    out.append("")

    # fault injection / reliable delivery
    from ..faults import FaultSpec

    fault_spec = FaultSpec.lossy(0.05)
    fault_sizes = (200, 400)
    grid = {"scheme": ["sfc", "cfs", "ed"], "n": list(fault_sizes), "n_procs": 4}
    clean, lossy = (
        table_from_store(
            sweep_records(Manifest.from_dict(
                {"name": "table3-reliability", "seed": 2002, "grid": g}
            )),
            "table3",
        )
        for g in (grid, {**grid, "faults": fault_spec.to_dict(), "fault_seed": 2002})
    )
    out.append(
        "**Reliability extension — Table 3 under failure rate f = 0.05** "
        "(drop 5%, duplicate/reorder/corrupt 2.5%, deterministic seed "
        "2002): every resend is charged `T_Startup + m·T_Data·hops` plus "
        "an exponential-backoff timeout through the same cost model, so "
        "the retry tax is directly comparable to the fault-free numbers."
    )
    out.append("")
    out.append("| scheme | n | T_total clean (ms) | T_total lossy (ms) | inflation |")
    out.append("|---|---|---|---|---|")
    for scheme in ("sfc", "cfs", "ed"):
        for n in fault_sizes:
            tc = clean.t(4, scheme, n, "t_total")
            tl = lossy.t(4, scheme, n, "t_total")
            out.append(
                f"| {scheme.upper()} | {n} | {tc:.3f} | {tl:.3f} | "
                f"{tl / tc:.2f}× |"
            )
    out.append("")
    totals = lossy.fault_totals()
    for phase, bucket in totals.items():
        counters = ", ".join(f"{k} {v}" for k, v in bucket.items())
        out.append(f"- {phase}: {counters}")
    out.append(
        "- final local arrays are identical to the fault-free run in "
        "every cell (reliable delivery is exactly-once after dedup; "
        "chaos suite: `pytest -m chaos`)"
    )
    out.append("")

    # fail-stop recovery / degraded mode
    from ..faults import FailStopSpec
    from .driver import run_scheme

    fs_matrix = paper_test_array(400, seed=11)
    kill_lists = {0: (), 1: (3,), 2: (1, 5), 4: (1, 3, 5, 6)}
    out.append(
        "**Robustness extension — degraded-mode cost vs. failed ranks** "
        "(n=400, p=8, row partition, CRS, `detect_after` = 3, doomed "
        "ranks dead on arrival): each cell is the end-to-end `T_total` "
        "(ms) including the missed-ack detection timeouts and all "
        "recovery traffic, charged through the same SP2 cost model.  "
        "`host-resend` re-partitions over the survivors and re-drives "
        "the whole scheme from the host; `peer-redistribute` host-"
        "simulates the dead slots, checkpoints, and lets the survivors "
        "absorb the lost partition peer-to-peer."
    )
    out.append("")
    n_dead_cols = sorted(kill_lists)
    out.append(
        "| scheme | policy | "
        + " | ".join(f"{k} failed" for k in n_dead_cols)
        + " |"
    )
    out.append("|" + "---|" * (2 + len(n_dead_cols)))
    for scheme in ("sfc", "cfs", "ed"):
        for policy in ("host-resend", "peer-redistribute"):
            cells = []
            for k in n_dead_cols:
                spec = FaultSpec(
                    fail_stop=FailStopSpec(dead_ranks=kill_lists[k])
                )
                r = run_scheme(
                    scheme,
                    fs_matrix,
                    partition="row",
                    n_procs=8,
                    compression="crs",
                    faults=spec,
                    fault_seed=2002,
                    recovery=policy,
                )
                rs = r.recovery_summary
                extra = (
                    f" *(+{rs.recovery_time_ms:.2f} rec)*"
                    if rs is not None and rs.failed
                    else ""
                )
                cells.append(f"{r.t_total:.3f}{extra}")
            out.append(
                f"| {scheme.upper()} | {policy} | " + " | ".join(cells) + " |"
            )
    out.append("")
    out.append(
        "- *(+x rec)* is the portion of the cell spent on recovery "
        "(detection timeouts + degraded re-distribution) after the "
        "first death was observed."
    )
    out.append(
        "- invariant (chaos suite, `pytest tests/recovery`): for every "
        "cell the survivors' compressed locals are byte-identical to a "
        "fault-free run of the same scheme on the surviving membership, "
        "and the failed cells cost strictly more than that fault-free "
        "run."
    )
    out.append("")

    out.append("## Observability (one Table-4 cell under the recorder)")
    out.append("")
    out.extend(_observability_section())
    out.append("")

    out.append("## Transcription notes on the published tables")
    out.append("")
    out.append(
        "- The paper's CFS `T_Compression` row is byte-identical across "
        "Tables 3, 4 and 5 (4.573 … 507.399 ms) even though Table 5 uses "
        "different array sizes (120–1920 vs 200–2000); we transcribe as "
        "printed (`repro.runtime.paper_results`) and note it here.  Our "
        "measured CFS compression for Table 5 differs accordingly "
        "(it tracks n², as the model says it must)."
    )
    out.append(
        "- Table 5's processor-count labels are garbled in available "
        "copies; they are the meshes 2×2, 4×4 and 8×8 (p = 4, 16, 64), "
        "consistent with the surrounding text."
    )
    out.append(
        "- In the figures, `RO` counts positions from 1 while `CO` holds "
        "0-based indices (Figure 4's P3 prints `CO = 1 2 4 0 3 6`); the "
        "repo mirrors both conventions in its paper-view properties."
    )
    out.append("")
    out.append(f"_Total report generation time: {time.time() - t0:.1f}s._")
    out.append("")
    return "\n".join(out)


def main(argv: list[str]) -> int:
    rest = list(argv[1:])
    store: str | None = None
    if "--store" in rest:
        at = rest.index("--store")
        if at + 1 >= len(rest):
            print("error: --store needs a RESULTS.jsonl path")
            return 2
        store = rest[at + 1]
        del rest[at : at + 2]
    path = rest[0] if rest else "EXPERIMENTS.md"
    report = build_report(store=store)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report)
    print(f"wrote {path} ({len(report.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
