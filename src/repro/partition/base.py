"""Partition plans: who owns which global rows/columns.

The data partition phase (paper Section 3, phase 1) splits a global
``n_rows x n_cols`` sparse array among ``p`` processors.  All partition
methods in this package produce a :class:`PartitionPlan` — an explicit,
validated mapping from each processor to the ordered global row ids and
column ids it owns.  Local index ``k`` of a processor corresponds to global
index ``row_ids[k]`` / ``col_ids[k]``.

The paper's three methods (row, column, 2-D mesh) produce *contiguous*
blocks, for which the global→local index conversion of Cases 3.2.2/3.2.3 and
3.3.2/3.3.3 is a single subtraction (the block's offset).  The related-work
methods (block-cyclic, bin-packing) produce non-contiguous ownership, for
which conversion needs the full gather map — the plan exposes both forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..sparse.coo import COOMatrix

__all__ = ["BlockAssignment", "PartitionPlan", "PartitionMethod", "balanced_block_sizes"]


def balanced_block_sizes(n: int, p: int) -> list[int]:
    """Split ``n`` items into ``p`` balanced contiguous blocks.

    The first ``n mod p`` blocks get ``ceil(n/p)`` items, the rest
    ``floor(n/p)`` — the Fortran 90 ``(Block)`` rule, and exactly the split
    in the paper's Figure 2 (10 rows over 4 processors → 3, 3, 2, 2).
    Blocks may be empty when ``p > n``.
    """
    if p <= 0:
        raise ValueError(f"number of processors must be positive, got {p}")
    if n < 0:
        raise ValueError(f"item count must be non-negative, got {n}")
    base, extra = divmod(n, p)
    return [base + 1 if i < extra else base for i in range(p)]


@dataclass(frozen=True)
class BlockAssignment:
    """The portion of the global array owned by one processor.

    Attributes
    ----------
    rank:
        Linear processor id in ``[0, p)``.
    mesh_coords:
        ``(i, j)`` position when the plan comes from a 2-D mesh partition,
        else ``None``.
    row_ids, col_ids:
        Ordered global indices owned; local index ``k`` ↔ global
        ``row_ids[k]``.
    """

    rank: int
    row_ids: np.ndarray = field(repr=False)
    col_ids: np.ndarray = field(repr=False)
    mesh_coords: Optional[tuple[int, int]] = None

    def __post_init__(self):
        object.__setattr__(
            self, "row_ids", np.ascontiguousarray(self.row_ids, dtype=np.int64)
        )
        object.__setattr__(
            self, "col_ids", np.ascontiguousarray(self.col_ids, dtype=np.int64)
        )
        self.row_ids.setflags(write=False)
        self.col_ids.setflags(write=False)

    @property
    def local_shape(self) -> tuple[int, int]:
        return (len(self.row_ids), len(self.col_ids))

    # -- contiguity helpers (needed by the paper's index-conversion cases) --
    @staticmethod
    def _is_contiguous(ids: np.ndarray) -> bool:
        return len(ids) == 0 or bool(
            np.array_equal(ids, np.arange(ids[0], ids[0] + len(ids)))
        )

    @property
    def rows_contiguous(self) -> bool:
        return self._is_contiguous(self.row_ids)

    @property
    def cols_contiguous(self) -> bool:
        return self._is_contiguous(self.col_ids)

    @property
    def row_offset(self) -> int:
        """First owned global row (the subtraction constant of Case 3.x.2/3
        when rows are the converted dimension).  Requires contiguity."""
        if not self.rows_contiguous:
            raise ValueError("row ownership is not contiguous; no single offset")
        return int(self.row_ids[0]) if len(self.row_ids) else 0

    @property
    def col_offset(self) -> int:
        """First owned global column (the Case 3.x.2/3 subtraction constant)."""
        if not self.cols_contiguous:
            raise ValueError("column ownership is not contiguous; no single offset")
        return int(self.col_ids[0]) if len(self.col_ids) else 0

    def extract_local(self, global_matrix: COOMatrix) -> COOMatrix:
        """The local sparse array (local indices) this processor owns."""
        if self.rows_contiguous and self.cols_contiguous:
            r0 = self.row_ids[0] if len(self.row_ids) else 0
            c0 = self.col_ids[0] if len(self.col_ids) else 0
            return global_matrix.submatrix(
                slice(int(r0), int(r0) + len(self.row_ids)),
                slice(int(c0), int(c0) + len(self.col_ids)),
            )
        return global_matrix.take_rows(self.row_ids).take_cols(self.col_ids)


@dataclass(frozen=True)
class PartitionPlan:
    """A complete, validated partition of a global array among processors."""

    method: str
    global_shape: tuple[int, int]
    assignments: tuple[BlockAssignment, ...]
    mesh_shape: Optional[tuple[int, int]] = None

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(self.assignments))
        self.validate()

    @property
    def n_procs(self) -> int:
        return len(self.assignments)

    def __iter__(self):
        return iter(self.assignments)

    def __getitem__(self, rank: int) -> BlockAssignment:
        return self.assignments[rank]

    def validate(self) -> None:
        """Check the plan is a true partition: every (row, col) cell of the
        global array is owned by exactly one processor.

        Exact at every size, without an ``n×m`` cover array: every id is in
        range, no block repeats an id, the block areas sum to ``n·m`` and
        the blocks are pairwise disjoint — then they tile the array.  Each
        block is a row set × a column set, so two blocks share a cell
        exactly when both their row sets and their column sets intersect:
        ``(R·Rᵀ > 0) & (C·Cᵀ > 0)`` off the diagonal, for the ``p×n`` and
        ``p×m`` owner matrices ``R`` and ``C``.
        """
        n_rows, n_cols = self.global_shape
        if not self.assignments:
            raise ValueError("a partition plan needs at least one assignment")
        ranks = [a.rank for a in self.assignments]
        if ranks != list(range(len(ranks))):
            raise ValueError(f"assignment ranks must be 0..p-1 in order, got {ranks}")
        row_owner = np.zeros((len(ranks), n_rows), dtype=np.float32)
        col_owner = np.zeros((len(ranks), n_cols), dtype=np.float32)
        for a in self.assignments:
            for ids, owner, what in (
                (a.row_ids, row_owner, "row"),
                (a.col_ids, col_owner, "column"),
            ):
                if len(ids) and (ids.min() < 0 or ids.max() >= owner.shape[1]):
                    raise ValueError(f"{what} ids out of range on rank {a.rank}")
                owner[a.rank, ids] = 1
                if np.count_nonzero(owner[a.rank]) != len(ids):
                    raise ValueError(
                        f"plan does not partition the array: rank {a.rank} "
                        f"lists a {what} id more than once"
                    )
        total = sum(len(a.row_ids) * len(a.col_ids) for a in self.assignments)
        expected = n_rows * n_cols
        if total != expected:
            fault = (
                f"at least {expected - total} cells uncovered"
                if total < expected
                else "cells covered more than once"
            )
            raise ValueError(f"plan covers {total} cells, expected {expected}: {fault}")
        shared = (row_owner @ row_owner.T > 0) & (col_owner @ col_owner.T > 0)
        np.fill_diagonal(shared, False)
        if shared.any():
            i, j = np.argwhere(shared)[0]
            raise ValueError(
                f"plan does not partition the array: ranks {i} and {j} share "
                "cells covered more than once, and as many are uncovered"
            )

    def extract_all(self, global_matrix: COOMatrix) -> list[COOMatrix]:
        """All local sparse arrays, indexed by rank (the partition phase)."""
        if global_matrix.shape != self.global_shape:
            raise ValueError(
                f"matrix shape {global_matrix.shape} != plan shape {self.global_shape}"
            )
        return [a.extract_local(global_matrix) for a in self.assignments]


class PartitionMethod:
    """Base class: a partition method maps (shape, p) to a PartitionPlan."""

    #: short name used by the scheme registry and result tables
    name: str = "abstract"

    def plan(self, shape: tuple[int, int], n_procs: int) -> PartitionPlan:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
