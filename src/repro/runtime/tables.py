"""Plain-text rendering of reproduced tables, paper-side-by-side.

Produces the same row layout as the paper's Tables 3–5: for each processor
count, per-scheme ``T_Distribution`` and ``T_Compression`` rows across the
array sizes, with the published number in parentheses when available.
"""

from __future__ import annotations

from typing import Sequence

from .experiments import SCHEMES_ORDER, TableReproduction

__all__ = ["format_table", "format_comparison_row", "shape_report"]


def _fmt(x: float) -> str:
    return f"{x:10.3f}"


def format_comparison_row(
    measured: Sequence[float], paper: Sequence[float] | None
) -> str:
    """One table line: measured (paper) per size."""
    if paper is None:
        return " ".join(_fmt(m) for m in measured)
    return " ".join(f"{m:10.3f} ({p:9.3f})" for m, p in zip(measured, paper))


def format_table(repro: TableReproduction, *, with_paper: bool = True) -> str:
    """Render a reproduced table as aligned text."""
    lines = [
        f"== {repro.table_id}: {repro.partition} partition, "
        f"{repro.compression.upper()} compression — simulated ms"
        + (" (paper ms)" if with_paper else ""),
        "   sizes: " + " ".join(f"{n:>10d}" for n in repro.sizes),
    ]
    for p in repro.proc_counts:
        lines.append(f"-- p = {p}")
        for scheme in SCHEMES_ORDER:
            for which, label in (
                ("t_distribution", "T_dist"),
                ("t_compression", "T_comp"),
            ):
                measured = repro.series(p, scheme, which)
                paper = repro.paper_series(p, scheme, which) if with_paper else None
                lines.append(
                    f"   {scheme.upper():>3} {label}: "
                    + format_comparison_row(measured, paper)
                )
    return "\n".join(lines)


def shape_report(repro: TableReproduction) -> dict[str, float]:
    """Fractions of cells where each published ordering holds.

    The reproduction's success criterion (DESIGN.md §4) is about these
    shapes, not absolute ms.
    """
    cells = [(p, n) for p in repro.proc_counts for n in repro.sizes]
    if not cells:
        raise ValueError("empty reproduction")
    dist = sum(repro.distribution_order_holds(p, n) for p, n in cells)
    comp = sum(repro.compression_order_holds(p, n) for p, n in cells)
    ed_cfs = sum(repro.ed_beats_cfs_overall(p, n) for p, n in cells)
    total = len(cells)
    return {
        "cells": total,
        "distribution_order_ed_cfs_sfc": dist / total,
        "compression_order_sfc_cfs_ed": comp / total,
        "ed_beats_cfs_overall": ed_cfs / total,
    }
