"""Manifest-driven experiment sweeps with a resumable JSONL result store.

The one path to the paper's table grids: a JSON :class:`Manifest` names
parameter grids over scheme × partition × compression × n × p, each
expanding to :class:`~repro.runtime.session.RunRequest`\\ s;
:func:`run_sweep` executes the expansion through the shared
:class:`~repro.runtime.session.RunSession` entry point (optionally
fanned out over worker processes), and every completed cell is one
fsync'd line in an append-only JSONL :class:`ResultStore` keyed by
manifest hash + cell ID — so an interrupted sweep resumes exactly where
it stopped and converges byte-identically to an uninterrupted run
(DESIGN.md §"Sweep orchestration").
"""

from .manifest import (
    Grid,
    Manifest,
    ManifestError,
    canonical_json,
    cell_seed,
)
from .orchestrator import SweepCellError, SweepError, SweepReport, run_sweep
from .report import (
    StoredResult,
    paper_tables_manifest,
    sweep_records,
    table_from_store,
)
from .store import (
    FORMAT_VERSION,
    ResultStore,
    StoreDriftError,
    StoreError,
    StoreState,
    load_store,
)

__all__ = [
    "FORMAT_VERSION",
    "Grid",
    "Manifest",
    "ManifestError",
    "ResultStore",
    "StoreDriftError",
    "StoreError",
    "StoreState",
    "StoredResult",
    "SweepCellError",
    "SweepError",
    "SweepReport",
    "canonical_json",
    "cell_seed",
    "load_store",
    "paper_tables_manifest",
    "run_sweep",
    "sweep_records",
    "table_from_store",
]
