"""Coordinate-format sparse matrix (the exchange/staging format).

The paper's schemes all start from a two-dimensional *global sparse array*
held on the host.  ``COOMatrix`` is our canonical in-memory description of
such an array before partitioning/compression: three parallel vectors
``(rows, cols, values)`` plus a ``shape``.

Conventions
-----------
* Indices are **0-based** internally (numpy-friendly).  The paper's figures
  use 1-based indices; the compressed classes (:class:`~repro.sparse.crs.
  CRSMatrix`, :class:`~repro.sparse.ccs.CCSMatrix`) expose 1-based ``RO/CO/
  VL`` views for figure-exact comparisons.
* A *canonical* COO matrix is sorted row-major (row, then col) and contains
  no duplicate coordinates and no explicitly stored zeros.  All constructors
  canonicalise unless told otherwise.

Canonicalisation (:func:`canonical_take`, also used by the n-dimensional
``SparseTensor``) sorts once, by one int64 key ``row · n_cols + col``, the
paper's CRS order (:func:`row_major_order`).  Distinct keys have exactly one
sorted order, so the fast unstable sort serves whenever the coordinates are
distinct, which is every generated sample.  Only when a key repeats does it
sort again, stably, and duplicates are then summed in input order, as a
two-key ``np.lexsort`` would order them (float summation order is part of the
byte-identity contract).  A shape whose ``n_rows · n_cols`` exceeds 2**63
cannot key in int64; it keeps ``np.lexsort``, so the order is exact at every
size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["COOMatrix", "canonical_take", "row_major_order"]


def _as_index_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def row_major_order(coords, shape):
    """The order that sorts coordinates row-major, ties in input order.

    ``coords`` holds one int64 index array per dimension of ``shape`` (the
    first dimension is the major one).  Returns ``(order, new_group)``:
    ``new_group`` marks the first of each run of equal coordinates in sorted
    order, or is None when every coordinate is distinct.
    """
    strides = [1]
    for size in reversed(shape[1:]):
        strides.append(strides[-1] * size)
    strides.reverse()
    # the largest key, prod(shape) - 1, and every stride must fit in int64
    if math.prod(shape) <= 2**63 and strides[0] < 2**63:
        key = coords[0] * strides[0]
        for c, stride in zip(coords[1:], strides[1:]):
            key += c if stride == 1 else c * stride
        order = np.argsort(key)
        sorted_key = key[order]
        same = sorted_key[1:] == sorted_key[:-1]
        if not same.any():
            return order, None
        order = np.argsort(key, kind="stable")
    else:
        order = np.lexsort(coords[::-1])
        same = np.ones(max(len(order) - 1, 0), dtype=bool)
        for c in coords:
            c = c[order]
            same &= c[1:] == c[:-1]
        if not same.any():
            return order, None
    new_group = np.empty(len(order), dtype=bool)
    new_group[0] = True
    np.logical_not(same, out=new_group[1:])
    return order, new_group


def canonical_take(coords, shape, values):
    """Sort row-major, sum duplicates in input order, drop explicit zeros.

    Returns ``(take, values)``: the canonical coordinates are ``c[take]``
    for each ``c`` in ``coords``, and the returned values are a fresh
    array, never the caller's memory.
    """
    take, new_group = row_major_order(coords, shape)
    values = values[take]
    if new_group is not None:
        group_ids = np.cumsum(new_group) - 1
        summed = np.zeros(group_ids[-1] + 1, dtype=np.float64)
        np.add.at(summed, group_ids, values)
        take, values = take[new_group], summed
    nz = values != 0.0
    if nz.all():
        return take, values
    return take[nz], values[nz]


@dataclass(frozen=True)
class COOMatrix:
    """An immutable coordinate-format sparse matrix.

    Parameters
    ----------
    shape:
        ``(n_rows, n_cols)`` of the (conceptually dense) array.
    rows, cols:
        0-based coordinates of the nonzero elements, parallel arrays.
    values:
        The nonzero values, parallel to ``rows``/``cols``.
    """

    shape: tuple[int, int]
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __init__(self, shape, rows, cols, values, *, canonical: bool = False):
        n_rows, n_cols = (int(shape[0]), int(shape[1]))
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"shape must be non-negative, got {(n_rows, n_cols)}")
        rows = _as_index_array(rows, "rows")
        cols = _as_index_array(cols, "cols")
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"values must be one-dimensional, got shape {values.shape}")
        if not (len(rows) == len(cols) == len(values)):
            raise ValueError(
                "rows, cols and values must have equal length, got "
                f"{len(rows)}, {len(cols)}, {len(values)}"
            )
        if len(rows):
            if rows.min(initial=0) < 0 or (n_rows and rows.max(initial=0) >= n_rows):
                raise ValueError("row index out of range")
            if cols.min(initial=0) < 0 or (n_cols and cols.max(initial=0) >= n_cols):
                raise ValueError("column index out of range")
            if n_rows == 0 or n_cols == 0:
                raise ValueError("nonzeros given for an empty shape")
        if not canonical:
            take, values = canonical_take((rows, cols), (n_rows, n_cols), values)
            rows, cols = rows[take], cols[take]
        for arr in (rows, cols, values):
            arr.setflags(write=False)
        object.__setattr__(self, "shape", (n_rows, n_cols))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", values)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense) -> "COOMatrix":
        """Build a COO matrix from a dense 2-D array.

        The nonzero scan (one test per element, the paper's compression
        inner loop) runs on the active kernel backend.
        """
        from ..kernels import current_backend

        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={dense.ndim}")
        rows, cols, values = current_backend().coo_from_dense(dense)
        return cls(dense.shape, rows, cols, values, canonical=True)

    @classmethod
    def empty(cls, shape) -> "COOMatrix":
        """A sparse matrix of the given shape with no nonzero elements."""
        z = np.empty(0, dtype=np.int64)
        return cls(shape, z, z, np.empty(0, dtype=np.float64), canonical=True)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored nonzero elements."""
        return int(len(self.values))

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def sparse_ratio(self) -> float:
        """The paper's *sparse ratio* ``s``: nnz / (n_rows * n_cols)."""
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    def to_dense(self) -> np.ndarray:
        """Materialise the dense 2-D array."""
        dense = np.zeros(self.shape, dtype=np.float64)
        dense[self.rows, self.cols] = self.values
        return dense

    def row_counts(self) -> np.ndarray:
        """nnz per row, length ``n_rows`` (the ED scheme's ``R_i`` for CRS)."""
        return np.bincount(self.rows, minlength=self.shape[0]).astype(np.int64)

    def col_counts(self) -> np.ndarray:
        """nnz per column, length ``n_cols`` (the ED scheme's ``R_i`` for CCS)."""
        return np.bincount(self.cols, minlength=self.shape[1]).astype(np.int64)

    # ------------------------------------------------------------------
    # slicing (used by the partition methods)
    # ------------------------------------------------------------------
    def submatrix(self, row_slice: slice, col_slice: slice) -> "COOMatrix":
        """Extract a contiguous block as a new COO matrix with local indices.

        ``row_slice``/``col_slice`` must be plain ``slice`` objects with
        non-negative bounds and step 1 (the paper only uses contiguous block
        partitions; block-cyclic partitioning goes through
        :meth:`take_rows` / :meth:`take_cols`).
        """
        r0, r1, rstep = row_slice.indices(self.shape[0])
        c0, c1, cstep = col_slice.indices(self.shape[1])
        if rstep != 1 or cstep != 1:
            raise ValueError("submatrix requires step-1 slices")
        mask = (
            (self.rows >= r0)
            & (self.rows < r1)
            & (self.cols >= c0)
            & (self.cols < c1)
        )
        return COOMatrix(
            (max(r1 - r0, 0), max(c1 - c0, 0)),
            self.rows[mask] - r0,
            self.cols[mask] - c0,
            self.values[mask],
            canonical=True,
        )

    def take_rows(self, row_ids) -> "COOMatrix":
        """Gather an arbitrary ordered set of rows into a new local matrix.

        ``row_ids[k]`` becomes local row ``k``.  Used by block-cyclic and
        bin-packing partitions where a processor's rows are not contiguous.
        """
        row_ids = _as_index_array(row_ids, "row_ids")
        lookup = np.full(self.shape[0], -1, dtype=np.int64)
        lookup[row_ids] = np.arange(len(row_ids), dtype=np.int64)
        local = lookup[self.rows]
        mask = local >= 0
        return COOMatrix(
            (len(row_ids), self.shape[1]),
            local[mask],
            self.cols[mask],
            self.values[mask],
        )

    def take_cols(self, col_ids) -> "COOMatrix":
        """Gather an arbitrary ordered set of columns (see :meth:`take_rows`)."""
        col_ids = _as_index_array(col_ids, "col_ids")
        lookup = np.full(self.shape[1], -1, dtype=np.int64)
        lookup[col_ids] = np.arange(len(col_ids), dtype=np.int64)
        local = lookup[self.cols]
        mask = local >= 0
        return COOMatrix(
            (self.shape[0], len(col_ids)),
            self.rows[mask],
            local[mask],
            self.values[mask],
        )

    def transpose(self) -> "COOMatrix":
        """The transposed matrix."""
        return COOMatrix(
            (self.shape[1], self.shape[0]), self.cols, self.rows, self.values
        )

    # ------------------------------------------------------------------
    # equality / repr
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, COOMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):  # frozen dataclass wants it; identity is fine
        return id(self)

    def __repr__(self) -> str:
        return (
            f"COOMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"sparse_ratio={self.sparse_ratio:.4f})"
        )
