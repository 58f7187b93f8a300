"""Measured grids of the paper's Tables 3, 4 and 5, aligned with the published numbers.

Each published table varies the array size and the processor count for one
partition method (row / column / 2-D mesh), reports ``T_Distribution`` and
``T_Compression`` per scheme, with the CRS compression method and sparse
ratio 0.1.  The grids themselves are declared once, as the sweep manifest
:func:`~repro.sweep.report.paper_tables_manifest`; a sweep runs it into a
result store and :func:`~repro.sweep.report.table_from_store` builds the
:class:`TableReproduction` the renderers and shape verdicts consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.base import SchemeResult
from ..faults.stats import FaultStats
from .paper_results import PAPER_TABLES, TABLE3_SIZES, TABLE5_SIZES

__all__ = ["TableReproduction", "SCHEMES_ORDER"]

SCHEMES_ORDER = ("sfc", "cfs", "ed")


@dataclass
class TableReproduction:
    """Measured grid for one table, aligned with the published numbers."""

    table_id: str
    partition: str
    compression: str
    sizes: tuple[int, ...]
    proc_counts: tuple[int, ...]
    #: (p, scheme, n) -> SchemeResult
    cells: dict[tuple[int, str, int], SchemeResult] = field(default_factory=dict)

    def t(self, p: int, scheme: str, n: int, which: str) -> float:
        """Measured time of one cell (``which`` in {'t_distribution',
        't_compression', 't_total'})."""
        return getattr(self.cells[(p, scheme, n)], which)

    def series(self, p: int, scheme: str, which: str) -> list[float]:
        """One published-table row: times across all sizes."""
        return [self.t(p, scheme, n, which) for n in self.sizes]

    def paper_series(self, p: int, scheme: str, which: str) -> list[float] | None:
        """The published counterpart row (None for off-grid reductions)."""
        table = PAPER_TABLES.get(self.table_id)
        if table is None or p not in table:
            return None
        full = table[p][scheme][which]
        ref_sizes = TABLE5_SIZES if self.table_id == "table5" else TABLE3_SIZES
        try:
            return [full[ref_sizes.index(n)] for n in self.sizes]
        except ValueError:
            return None

    # -- shape checks the benches assert on --------------------------------
    def distribution_order_holds(self, p: int, n: int) -> bool:
        """Observation 1+2 of Section 5.1: ED < CFS < SFC in T_dist."""
        ed = self.t(p, "ed", n, "t_distribution")
        cfs = self.t(p, "cfs", n, "t_distribution")
        sfc = self.t(p, "sfc", n, "t_distribution")
        return ed < cfs < sfc

    def compression_order_holds(self, p: int, n: int) -> bool:
        """Remark 3's observed counterpart: SFC < CFS < ED in T_comp."""
        ed = self.t(p, "ed", n, "t_compression")
        cfs = self.t(p, "cfs", n, "t_compression")
        sfc = self.t(p, "sfc", n, "t_compression")
        return sfc < cfs < ed

    def ed_beats_cfs_overall(self, p: int, n: int) -> bool:
        """Remark 4 / Conclusion 3: ED total below CFS total."""
        return self.t(p, "ed", n, "t_total") < self.t(p, "cfs", n, "t_total")

    def fault_totals(self) -> dict[str, dict[str, int]]:
        """Fault counters merged over every cell of the grid (empty when
        the grid ran fault-free)."""
        return FaultStats.merge(
            [r.fault_summary for r in self.cells.values() if r.fault_summary]
        )

