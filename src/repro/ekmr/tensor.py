"""Multi-dimensional sparse arrays (COO tensors).

The paper's conclusion names its future work: "developing efficient data
distribution schemes for multi-dimensional sparse arrays based on the
extended Karnaugh map representation (EKMR)" [11, 12].  This subpackage
implements that direction: :class:`SparseTensor` is the n-dimensional
staging format, :mod:`repro.ekmr.ekmr` maps it onto a 2-D array the
existing CRS/CCS + SFC/CFS/ED machinery handles unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sparse.coo import canonical_take

__all__ = ["SparseTensor"]


@dataclass(frozen=True)
class SparseTensor:
    """An immutable n-dimensional sparse array in coordinate format.

    ``coords`` has shape ``(ndim, nnz)``; column ``k`` is the coordinate of
    the ``k``-th stored nonzero.  Canonical form: lexicographically sorted
    by coordinate (first dimension most significant), duplicate-free, no
    stored zeros.
    """

    shape: tuple[int, ...]
    coords: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __init__(self, shape, coords, values, *, canonical: bool = False):
        shape = tuple(int(d) for d in shape)
        if len(shape) < 1:
            raise ValueError("tensor needs at least one dimension")
        if any(d < 0 for d in shape):
            raise ValueError(f"shape must be non-negative, got {shape}")
        coords = np.asarray(coords, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[0] != len(shape):
            raise ValueError(
                f"coords must have shape (ndim={len(shape)}, nnz), got {coords.shape}"
            )
        if values.ndim != 1 or values.shape[0] != coords.shape[1]:
            raise ValueError("values must be 1-D and parallel to coords")
        for d, size in enumerate(shape):
            if coords.shape[1] and (
                coords[d].min() < 0 or coords[d].max() >= size
            ):
                raise ValueError(f"coordinate out of range in dimension {d}")
        if not canonical:
            take, values = canonical_take(coords, shape, values)
            coords = coords[:, take]
        coords = np.ascontiguousarray(coords)
        values = np.ascontiguousarray(values)
        coords.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "values", values)

    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense) -> "SparseTensor":
        dense = np.asarray(dense, dtype=np.float64)
        coords = np.array(np.nonzero(dense), dtype=np.int64)
        return cls(dense.shape, coords, dense[tuple(coords)], canonical=True)

    @classmethod
    def random(cls, shape, sparse_ratio: float, *, seed=None) -> "SparseTensor":
        """Uniform random tensor with exactly ``round(s·numel)`` nonzeros."""
        if not 0.0 <= sparse_ratio <= 1.0:
            raise ValueError(f"sparse_ratio must be in [0, 1], got {sparse_ratio}")
        shape = tuple(int(d) for d in shape)
        total = int(np.prod(shape)) if shape else 0
        k = int(round(sparse_ratio * total))
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        if k == 0:
            return cls(shape, np.empty((len(shape), 0), dtype=np.int64), np.empty(0))
        flat = rng.choice(total, size=k, replace=False)
        coords = np.array(np.unravel_index(flat, shape), dtype=np.int64)
        return cls(shape, coords, rng.uniform(1.0, 2.0, size=k))

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def sparse_ratio(self) -> float:
        total = int(np.prod(self.shape)) if self.shape else 0
        return self.nnz / total if total else 0.0

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        dense[tuple(self.coords)] = self.values
        return dense

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseTensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.coords, other.coords)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return id(self)

    def __repr__(self) -> str:
        return f"SparseTensor(shape={self.shape}, nnz={self.nnz})"
