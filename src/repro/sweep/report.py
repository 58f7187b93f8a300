"""Render published-table reproductions from a sweep store alone.

:func:`paper_tables_manifest` declares the exact Tables 3–5 grids
as a sweep manifest (same ``2002 + n + 131·p`` seed recipe, so the same
matrices), the orchestrator runs it into a result store, and
:func:`table_from_store` rebuilds a
:class:`~repro.runtime.experiments.TableReproduction` — the object the
markdown renderers and shape verdicts already consume — from the
committed records *without re-running anything*.  ``repro report``
therefore regenerates its tables exclusively from the store, and an
interrupted report run resumes instead of starting over.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence, cast

from ..core.base import SchemeResult
from ..runtime.experiments import SCHEMES_ORDER, TableReproduction
from ..runtime.paper_results import TABLE3_SIZES, TABLE5_SIZES
from .manifest import Grid, Manifest
from .orchestrator import run_sweep
from .store import StoreError

__all__ = [
    "StoredResult",
    "paper_tables_manifest",
    "sweep_records",
    "table_from_store",
]

#: the published grids' base seed
PAPER_SEED = 2002

#: the partition method each published table measures
TABLE_PARTITIONS = {"table3": "row", "table4": "column", "table5": "mesh2d"}

#: Table 5's processor meshes, keyed by p
TABLE5_MESHES = {4: (2, 2), 16: (4, 4), 64: (8, 8)}


@dataclass(frozen=True)
class StoredResult:
    """The slice of a :class:`SchemeResult` a store record preserves.

    Quacks like the real thing for everything the table renderers and
    shape verdicts touch (``t_distribution``/``t_compression``/
    ``t_total``/``fault_summary``).
    """

    t_distribution: float
    t_compression: float
    wire_elements: int
    n_messages: int
    fault_summary: dict[str, dict[str, int]] | None = None

    @property
    def t_total(self) -> float:
        return self.t_distribution + self.t_compression

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "StoredResult":
        result = record["result"]
        return cls(
            t_distribution=result["t_distribution_ms"],
            t_compression=result["t_compression_ms"],
            wire_elements=result["wire_elements"],
            n_messages=result["n_messages"],
            fault_summary=result.get("fault_summary"),
        )


def paper_tables_manifest(
    *,
    sizes: Sequence[int] | None = None,
    proc_counts: Sequence[int] | None = None,
    mesh_sizes: Sequence[int] | None = None,
    mesh_proc_counts: Sequence[int] | None = None,
) -> Manifest:
    """The declarative form of the paper's Tables 3–5 grids — their only
    definition in the repo.

    One grid covers Tables 3 and 4 (row and column partitions share
    sizes and processor counts) and a second covers Table 5's 2-D
    meshes.  ``examples/sweeps/tables.json`` is this manifest's
    :meth:`~repro.sweep.manifest.Manifest.to_dict` verbatim
    (tests/sweep/test_report_from_store.py pins the equality).  The
    size/count overrides exist for reduced grids.
    """
    mesh_p = tuple(mesh_proc_counts) if mesh_proc_counts is not None else (4, 16, 64)
    return Manifest(
        name="paper-tables",
        description=(
            "Tables 3-5 of Lin/Chung/Liu (ICPP 2002): scheme x partition "
            "grid at s=0.1, CRS, seeded with the published-table recipe"
        ),
        seed=PAPER_SEED,
        grids=(
            _grid(
                partition=("row", "column"),
                n=tuple(sizes) if sizes is not None else tuple(TABLE3_SIZES),
                n_procs=tuple(proc_counts) if proc_counts is not None else (4, 16, 32),
            ),
            _grid(
                partition=("mesh2d",),
                n=tuple(mesh_sizes) if mesh_sizes is not None else tuple(TABLE5_SIZES),
                n_procs=mesh_p,
                mesh_shapes=tuple(
                    (p, TABLE5_MESHES[p]) for p in mesh_p if p in TABLE5_MESHES
                ),
            ),
        ),
    )


def _grid(
    *,
    partition: tuple[str, ...],
    n: tuple[int, ...],
    n_procs: tuple[int, ...],
    mesh_shapes: tuple[tuple[int, tuple[int, int]], ...] = (),
) -> Grid:
    return Grid(
        scheme=tuple(SCHEMES_ORDER),
        n=n,
        n_procs=n_procs,
        partition=partition,
        compression=("crs",),
        sparse_ratio=(0.1,),
        mesh_shapes=mesh_shapes,
    )


def sweep_records(manifest: Manifest, **run_kwargs: Any) -> list[dict[str, Any]]:
    """Run ``manifest`` into a temporary store (discarded afterwards) and
    return its committed records; ``run_kwargs`` go to :func:`run_sweep`."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / f"{manifest.name}.jsonl"
        return run_sweep(manifest, path, **run_kwargs).records


def table_from_store(
    records: Iterable[Mapping[str, Any]],
    table_id: str,
    *,
    sizes: Sequence[int] | None = None,
    proc_counts: Sequence[int] | None = None,
    sparse_ratio: float = 0.1,
) -> TableReproduction:
    """Rebuild one table's :class:`TableReproduction` from store records.

    Selects the records matching the table's partition (CRS, and
    ``sparse_ratio``).  ``sizes``/``proc_counts`` default to every value
    the selected records hold; the grid must be fully covered — a store
    that is missing cells raises :class:`~repro.sweep.store.StoreError`
    rather than rendering a silently truncated table.
    """
    partition = TABLE_PARTITIONS[table_id]
    by_cell: dict[tuple[int, str, int], StoredResult] = {}
    for record in records:
        params = record["params"]
        if (
            params["partition"] != partition
            or params["compression"] != "crs"
            or params["sparse_ratio"] != sparse_ratio
        ):
            continue
        key = (params["n_procs"], params["scheme"], params["n"])
        by_cell[key] = StoredResult.from_record(record)
    if sizes is None:
        sizes = sorted({n for _, _, n in by_cell})
    if proc_counts is None:
        proc_counts = sorted({p for p, _, _ in by_cell})

    repro = TableReproduction(
        table_id=table_id, partition=partition, compression="crs",
        sizes=tuple(sizes), proc_counts=tuple(proc_counts),
    )
    missing: list[tuple[int, str, int]] = []
    for p in proc_counts:
        for scheme in SCHEMES_ORDER:
            for n in sizes:
                stored = by_cell.get((p, scheme, n))
                if stored is None:
                    missing.append((p, scheme, n))
                    continue
                # StoredResult exposes exactly the attributes the
                # renderers read; the full SchemeResult (locals, traces)
                # is deliberately not persisted
                repro.cells[(p, scheme, n)] = cast(SchemeResult, stored)
    if missing or not by_cell:
        raise StoreError(
            f"store does not cover {table_id}: missing cells "
            f"{missing[:4]}{'…' if len(missing) > 4 else ''} "
            f"({len(missing)} of {len(proc_counts) * len(SCHEMES_ORDER) * len(sizes)})"
        )
    return repro
