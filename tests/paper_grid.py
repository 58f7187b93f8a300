"""Reduced paper-table grids, reached the one way the repo reaches them:
manifest → ``run_sweep`` (temporary store) → ``table_from_store``."""

from __future__ import annotations

from repro.sweep import Manifest, sweep_records, table_from_store
from repro.sweep.report import TABLE5_MESHES, TABLE_PARTITIONS


def reduced_table(table_id, sizes, proc_counts, **grid):
    """``(records, TableReproduction)`` for one table on a reduced grid.

    ``grid`` adds or overrides manifest grid keys (``sparse_ratio``,
    ``faults``, ...).
    """
    body = {
        "scheme": ["sfc", "cfs", "ed"],
        "partition": TABLE_PARTITIONS[table_id],
        "n": list(sizes),
        "n_procs": list(proc_counts),
        **grid,
    }
    if table_id == "table5":
        body["mesh_shapes"] = {
            str(p): list(TABLE5_MESHES[p]) for p in proc_counts if p in TABLE5_MESHES
        }
    records = sweep_records(
        Manifest.from_dict({"name": table_id, "seed": 2002, "grid": body})
    )
    table = table_from_store(
        records, table_id, sparse_ratio=body.get("sparse_ratio", 0.1)
    )
    return records, table
