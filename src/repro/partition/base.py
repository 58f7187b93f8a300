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

import weakref
from dataclasses import dataclass, field
from typing import Any, ClassVar, Iterator, Optional

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
    #: each id list is one run ``i0, i0+1, …`` (needed by the paper's
    #: index-conversion cases); set once, at construction
    rows_contiguous: bool = field(init=False, repr=False, compare=False)
    cols_contiguous: bool = field(init=False, repr=False, compare=False)
    #: both id lists ascending, so the block's local row-major order is its
    #: global one
    ascending: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ascending = True
        for ids, name in ((self.row_ids, "row"), (self.col_ids, "col")):
            ids = np.ascontiguousarray(ids, dtype=np.int64)
            ids.setflags(write=False)
            rising = len(ids) < 2 or bool((ids[1:] > ids[:-1]).all())
            run = rising and (len(ids) == 0 or int(ids[-1] - ids[0]) == len(ids) - 1)
            ascending = ascending and rising
            object.__setattr__(self, f"{name}_ids", ids)
            object.__setattr__(self, f"{name}s_contiguous", run)
        object.__setattr__(self, "ascending", ascending)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockAssignment):
            return NotImplemented
        return (
            (self.rank, self.mesh_coords) == (other.rank, other.mesh_coords)
            and np.array_equal(self.row_ids, other.row_ids)
            and np.array_equal(self.col_ids, other.col_ids)
        )

    @property
    def local_shape(self) -> tuple[int, int]:
        return (len(self.row_ids), len(self.col_ids))

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
    """A complete, validated partition of a global array among processors.

    The plan keeps its last extraction (see :meth:`extract_all`); that memo
    is not part of its value, so it is neither compared, pickled nor
    copied.
    """

    method: str
    global_shape: tuple[int, int]
    assignments: tuple[BlockAssignment, ...]
    mesh_shape: Optional[tuple[int, int]] = None

    #: ``(weak reference to a matrix, its locals)`` of the last
    #: :meth:`extract_all`, set per plan (a class default, not a field)
    _extracted: ClassVar[Optional[tuple[weakref.ref, tuple[COOMatrix, ...]]]] = None

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(self.assignments))
        self.validate()

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_extracted", None)
        return state

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
        """All local sparse arrays, indexed by rank (the partition phase).

        One pass over the nonzeros, not one per rank: :meth:`_bands` gives
        each nonzero its owner, :func:`_bucket` splits them by owner in
        their global (canonical, row-major) order, and a block is re-sorted
        only when its ids are not ascending.
        :meth:`BlockAssignment.extract_local` stays the per-rank oracle.

        The plan keeps the (immutable) locals of the last matrix it was
        given, by identity, and returns them again for that same matrix
        object; it holds the matrix only weakly and lets the locals go
        when the matrix dies.
        """
        if global_matrix.shape != self.global_shape:
            raise ValueError(
                f"matrix shape {global_matrix.shape} != plan shape {self.global_shape}"
            )
        memo = self._extracted  # read once: ``forget`` may clear it at any time
        if memo is not None and memo[0]() is global_matrix:
            return list(memo[1])
        n_rows, n_cols = self.global_shape
        out = [COOMatrix.empty(a.local_shape) for a in self.assignments]
        for ranks, arrays, owner in self._bands(global_matrix):
            # a band of one rank is a view of the matrix; _bucket's parts
            # are new, so they are localised in place
            parts = [arrays] if owner is None else _bucket(owner, len(ranks), arrays)
            ours = owner is not None
            for a, (rows, cols, values) in zip(ranks, parts):
                out[a.rank] = COOMatrix(
                    a.local_shape,
                    _to_local(a.row_ids, a.rows_contiguous, n_rows, rows, ours),
                    _to_local(a.col_ids, a.cols_contiguous, n_cols, cols, ours),
                    values,
                    canonical=a.ascending,
                )
        plan = weakref.ref(self)

        def forget(matrix: weakref.ref) -> None:
            alive = plan()
            memo = alive._extracted if alive is not None else None
            if memo is not None and memo[0] is matrix:  # not replaced since
                object.__setattr__(alive, "_extracted", None)

        object.__setattr__(
            self, "_extracted", (weakref.ref(global_matrix, forget), tuple(out))
        )
        return out

    def _bands(self, matrix: COOMatrix) -> Iterator[_Band]:
        """The nonzeros in bands: yields ``(ranks, (rows, cols, values),
        owner)``, where ``owner[i]`` indexes ``ranks`` (``None`` when the
        band has one rank).

        When the row bands are disjoint and each is contiguous (row,
        column, mesh2d, bisection), a band is a ``searchsorted`` slice of
        the canonical COO and its ranks split the columns through a
        table.  Otherwise all nonzeros form one band over every rank, with
        their owners from :meth:`owners`.
        """
        bands = self._row_bands()
        nonzeros = (matrix.rows, matrix.cols, matrix.values)
        disjoint = sum(len(band[0].row_ids) for band in bands) == self.global_shape[0]
        if not (disjoint and all(band[0].rows_contiguous for band in bands)):
            yield list(self.assignments), nonzeros, self.owners(matrix.rows, matrix.cols)
            return
        owner_type = np.min_scalar_type(sum(map(len, bands)))
        for ranks in bands:
            ids = ranks[0].row_ids
            lo, hi = np.searchsorted(matrix.rows, (ids[0], ids[-1] + 1))
            arrays = tuple(x[lo:hi] for x in nonzeros)
            split: Optional[np.ndarray] = None
            if len(ranks) > 1:
                table = np.empty(self.global_shape[1], dtype=owner_type)
                for k, a in enumerate(ranks):
                    table[a.col_ids] = k
                split = table[arrays[1]]
            yield ranks, arrays, split

    def owners(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The rank that owns each global cell ``(rows[i], cols[i])``.

        When the row bands (ranks that share a row set) are disjoint —
        every method in this package — this is one row-band × column table
        lookup; a plan that is not such a grid is looked up rank by rank.
        """
        n_rows, n_cols = self.global_shape
        bands = self._row_bands()
        owner_type = np.min_scalar_type(self.n_procs)
        if sum(len(band[0].row_ids) for band in bands) != n_rows:
            owner = np.empty(len(rows), dtype=owner_type)
            for a in self.assignments:
                in_rows = np.zeros(n_rows, dtype=bool)
                in_cols = np.zeros(n_cols, dtype=bool)
                in_rows[a.row_ids] = in_cols[a.col_ids] = True
                owner[in_rows[rows] & in_cols[cols]] = a.rank
            return owner
        band_of = np.empty(n_rows, dtype=np.intp)
        table = np.empty((len(bands), n_cols), dtype=owner_type)
        for b, band in enumerate(bands):
            band_of[band[0].row_ids] = b
            for a in band:
                table[b, a.col_ids] = a.rank
        return table[band_of[rows], cols]

    def _row_bands(self) -> list[list[BlockAssignment]]:
        """The non-empty blocks grouped by row set, in rank order."""
        by_rows: dict[bytes, list[BlockAssignment]] = {}
        for a in self.assignments:
            if len(a.row_ids) and len(a.col_ids):
                by_rows.setdefault(a.row_ids.tobytes(), []).append(a)
        return list(by_rows.values())


#: one band of :meth:`PartitionPlan._bands`: its ranks, its nonzeros'
#: ``(rows, cols, values)`` and each nonzero's index into the ranks
_Band = tuple[list[BlockAssignment], tuple[np.ndarray, ...], Optional[np.ndarray]]

#: nonzeros per chunk of :func:`_bucket` (a 512 KiB permutation)
_CHUNK = 1 << 16


def _bucket(
    owner: np.ndarray, n_owners: int, arrays: tuple[np.ndarray, ...]
) -> list[tuple[np.ndarray, ...]]:
    """Split parallel arrays by a small-int ``owner``, keeping their order.

    A stable counting sort, run in chunks so no permutation longer than
    ``_CHUNK`` is ever held; each owner's part is allocated once, at its
    final size.
    """
    chunks = [owner[at : at + _CHUNK] for at in range(0, len(owner), _CHUNK)]
    counts = np.array(
        [np.bincount(chunk, minlength=n_owners) for chunk in chunks], dtype=np.int64
    ).reshape(len(chunks), n_owners)
    parts = [
        tuple(np.empty(n, dtype=x.dtype) for x in arrays)
        for n in counts.sum(axis=0).tolist()
    ]
    # where chunk c's run of owner k starts in the chunk's sorted order,
    # and where it goes in owner k's part
    runs = (np.cumsum(counts, axis=1) - counts).tolist()
    dests = (np.cumsum(counts, axis=0) - counts).tolist()
    for c, chunk in enumerate(chunks):
        order = np.argsort(chunk, kind="stable")
        order += c * _CHUNK
        for part, run, dest, n in zip(parts, runs[c], dests[c], counts[c].tolist()):
            for x, y in zip(arrays, part):
                # the indices come from argsort: "clip" never clips
                np.take(x, order[run : run + n], out=y[dest : dest + n], mode="clip")
    return parts


def _to_local(
    ids: np.ndarray, contiguous: bool, size: int, picked: np.ndarray, ours: bool
) -> np.ndarray:
    """Global → local indices of one block (``picked`` ⊆ ``ids``), written
    over ``picked`` when ``ours``."""
    out = picked if ours else None
    if contiguous:
        return np.subtract(picked, ids[0], out=out) if len(ids) and ids[0] else picked
    lookup = np.empty(size, dtype=np.int64)  # only entries at ids are read
    lookup[ids] = np.arange(len(ids), dtype=np.int64)
    return np.take(lookup, picked, out=out)


class PartitionMethod:
    """Base class: a partition method maps (shape, p) to a PartitionPlan."""

    #: short name used by the scheme registry and result tables
    name: str = "abstract"

    def plan(self, shape: tuple[int, int], n_procs: int) -> PartitionPlan:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
