"""Synthetic sparse array generators.

The paper's test samples are two-dimensional sparse arrays with a fixed
*sparse ratio* ``s = nnz / n^2`` (Section 5 sets ``s = 0.1`` everywhere).
:func:`random_sparse` reproduces that: it draws exactly ``round(s * n_rows *
n_cols)`` distinct coordinates uniformly at random, so the generated array's
sparse ratio equals the requested one to within rounding — matching the
paper's "the sparse ratio is set to 0.1 for all ... test samples".

Additional structured generators (banded, block-diagonal, row-skewed) back
the ablation benches: schemes behave differently when nonzeros cluster,
because per-processor sparse ratios ``s_i`` then diverge from the global
``s`` (the paper's ``s'`` = max local ratio).
"""

from __future__ import annotations

import numpy as np

from .coo import COOMatrix

__all__ = [
    "random_sparse",
    "bernoulli_sparse",
    "banded_sparse",
    "block_diagonal_sparse",
    "row_skewed_sparse",
    "paper_test_array",
]


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _values(rng: np.random.Generator, k: int) -> np.ndarray:
    """Nonzero values: uniform in [1, 2) so no accidental zeros occur."""
    return rng.uniform(1.0, 2.0, size=k)


def random_sparse(
    shape: tuple[int, int], sparse_ratio: float, *, seed=None
) -> COOMatrix:
    """A sparse array with *exactly* ``round(s * total)`` nonzeros.

    Coordinates are sampled without replacement uniformly over the whole
    array, matching the paper's experimental setup (fixed global sparse
    ratio, unstructured fill).

    Cost: the draw is distinct, so canonicalising it is one unstable int64
    sort by ``row · n_cols + col`` with no duplicate pass.  At n=2400,
    s=0.1 on a 2-vCPU Xeon the whole call takes about 67 ms of CPU (it
    took about 185 ms with a two-key lexsort).  The largest single step
    is ``rng.choice``, about 22 ms, which at the paper's ratios shuffles
    a materialised ``arange(n_rows · n_cols)`` (46 MB); the sort is about
    16 ms and the gathers into row-major order about 12 ms.
    """
    if not 0.0 <= sparse_ratio <= 1.0:
        raise ValueError(f"sparse_ratio must be in [0, 1], got {sparse_ratio}")
    n_rows, n_cols = int(shape[0]), int(shape[1])
    total = n_rows * n_cols
    k = int(round(sparse_ratio * total))
    if k == 0:
        return COOMatrix.empty((n_rows, n_cols))
    rng = _rng(seed)
    flat = rng.choice(total, size=k, replace=False)
    rows, cols = np.divmod(flat, n_cols)
    return COOMatrix((n_rows, n_cols), rows, cols, _values(rng, k))


def bernoulli_sparse(
    shape: tuple[int, int], sparse_ratio: float, *, seed=None
) -> COOMatrix:
    """A sparse array where each element is nonzero independently w.p. ``s``.

    The *expected* sparse ratio is ``s``; the realised one fluctuates.  Used
    by the exact-vs-Bernoulli ablation (DESIGN.md §5).
    """
    if not 0.0 <= sparse_ratio <= 1.0:
        raise ValueError(f"sparse_ratio must be in [0, 1], got {sparse_ratio}")
    n_rows, n_cols = int(shape[0]), int(shape[1])
    rng = _rng(seed)
    mask = rng.random((n_rows, n_cols)) < sparse_ratio
    rows, cols = np.nonzero(mask)
    return COOMatrix((n_rows, n_cols), rows, cols, _values(rng, len(rows)))


def banded_sparse(
    shape: tuple[int, int], bandwidth: int, *, fill: float = 1.0, seed=None
) -> COOMatrix:
    """Nonzeros confined to ``|i - j| <= bandwidth``, filled w.p. ``fill``.

    Typical of finite-element / finite-difference matrices.  Row and column
    partitions keep local ratios even; a 2-D mesh partition leaves off-
    diagonal processors nearly empty — the skew the ``s'`` notation exists
    for.
    """
    if bandwidth < 0:
        raise ValueError(f"bandwidth must be >= 0, got {bandwidth}")
    n_rows, n_cols = int(shape[0]), int(shape[1])
    rng = _rng(seed)
    rows_list, cols_list = [], []
    for i in range(n_rows):
        lo = max(0, i - bandwidth)
        hi = min(n_cols, i + bandwidth + 1)
        if lo >= hi:
            continue
        cols = np.arange(lo, hi, dtype=np.int64)
        if fill < 1.0:
            cols = cols[rng.random(len(cols)) < fill]
        rows_list.append(np.full(len(cols), i, dtype=np.int64))
        cols_list.append(cols)
    if not rows_list:
        return COOMatrix.empty((n_rows, n_cols))
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    return COOMatrix((n_rows, n_cols), rows, cols, _values(rng, len(rows)))


def block_diagonal_sparse(
    n_blocks: int, block_size: int, *, block_ratio: float = 0.5, seed=None
) -> COOMatrix:
    """``n_blocks`` dense-ish blocks along the diagonal (domain decomposition)."""
    if n_blocks <= 0 or block_size <= 0:
        raise ValueError("n_blocks and block_size must be positive")
    rng = _rng(seed)
    n = n_blocks * block_size
    rows_list, cols_list = [], []
    for b in range(n_blocks):
        block = random_sparse((block_size, block_size), block_ratio, seed=rng)
        rows_list.append(block.rows + b * block_size)
        cols_list.append(block.cols + b * block_size)
    rows = np.concatenate(rows_list) if rows_list else np.empty(0, dtype=np.int64)
    cols = np.concatenate(cols_list) if cols_list else np.empty(0, dtype=np.int64)
    return COOMatrix((n, n), rows, cols, _values(rng, len(rows)))


def row_skewed_sparse(
    shape: tuple[int, int], sparse_ratio: float, *, skew: float = 2.0, seed=None
) -> COOMatrix:
    """Nonzeros concentrated toward low-index rows (Zipf-like row weights).

    ``skew = 0`` degenerates to uniform; larger values concentrate harder.
    This makes the *max* local sparse ratio ``s'`` exceed the global ``s``
    under row partitioning, separating formulas that depend on ``s`` from
    those that depend on ``s'`` — and is the workload where the bin-packing
    partitioner (Ziantz et al.) visibly beats plain blocking.
    """
    if not 0.0 <= sparse_ratio <= 1.0:
        raise ValueError(f"sparse_ratio must be in [0, 1], got {sparse_ratio}")
    if skew < 0:
        raise ValueError(f"skew must be >= 0, got {skew}")
    n_rows, n_cols = int(shape[0]), int(shape[1])
    k = int(round(sparse_ratio * n_rows * n_cols))
    if k == 0:
        return COOMatrix.empty((n_rows, n_cols))
    rng = _rng(seed)
    weights = 1.0 / (np.arange(1, n_rows + 1, dtype=np.float64) ** skew)
    weights /= weights.sum()
    # cap per-row draws at n_cols by sampling rows then columns w/o replacement
    row_draws = rng.choice(n_rows, size=4 * k, replace=True, p=weights)
    rows_out, cols_out = [], []
    remaining = k
    counts = np.bincount(row_draws, minlength=n_rows)
    for i in np.argsort(-counts):
        if remaining <= 0:
            break
        take = min(int(counts[i]), n_cols, remaining)
        if take == 0:
            continue
        cols = rng.choice(n_cols, size=take, replace=False)
        rows_out.append(np.full(take, i, dtype=np.int64))
        cols_out.append(cols.astype(np.int64))
        remaining -= take
    rows = np.concatenate(rows_out)
    cols = np.concatenate(cols_out)
    return COOMatrix((n_rows, n_cols), rows, cols, _values(rng, len(rows)))


def paper_test_array(n: int, *, seed=0) -> COOMatrix:
    """An ``n x n`` test sample exactly as in the paper's Section 5.

    Square, unstructured, sparse ratio fixed at 0.1.
    """
    return random_sparse((n, n), 0.1, seed=seed)
