"""Vectorised NumPy implementations of the hot-path kernels (default).

These are the production fast paths: every kernel but one is a handful of
whole-array numpy operations with no per-element Python loop.  Their
outputs — arrays, dtypes, wire bytes, float summation order — are
byte-identical to the :mod:`repro.kernels.python_backend` oracle by
construction, a contract pinned by ``tests/kernels/test_differential.py``.

The exception is ``ed_decode_counts``, a sequential walk over the ED
special buffer's segments: each count ``R_i`` sits at a position set by
every earlier count, and the walk is the wire format's corruption check
(a count that is negative, not an integer, or steps past the end raises).
Its loop only steps from count to count over a ``memoryview``; numpy then
checks every count and the walk's end at once, and on a buffer that fails
finds the first fault among the steps already taken to raise its message.
It is still one Python step per segment, so it is the largest kernel cost
of an ED run under the column partition, where every rank decodes one
segment per global row: about 7 of 18 ms CPU of a warm run at n=2000, p=16,
s=0.05 on a 2-vCPU Xeon, where the walk with its checks in the loop took
about 14 of 32 ms.

Summation-order notes (float addition is not associative, so order is
part of the byte-identity contract):

* ``spmv_*`` accumulate with ``np.add.at``, which adds contributions in
  array order — the same order as the oracle's nonzero-by-nonzero loop.
* ``spgemm_expand`` traverses distinct ``k`` ascending, then ``A``'s
  nonzeros with column ``k`` in row-major order — the oracle walks the
  identical order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..sparse.coo import row_major_order
from .dispatch import KernelBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    name = "numpy"

    # ------------------------------------------------------------------
    # compression
    # ------------------------------------------------------------------
    def coo_from_dense(self, dense: np.ndarray):
        # one scan of a boolean mask over the row-major flat view (the mask
        # is freed before the values and columns are allocated); rows and
        # columns by division
        n_cols = max(dense.shape[1], 1)
        flat = dense.reshape(-1)
        at = np.flatnonzero(flat != 0).astype(np.int64, copy=False)
        values = flat[at].astype(np.float64, copy=False)
        cols = at % n_cols
        at //= n_cols
        return at, cols, values

    def crs_from_coo(self, shape, rows, cols, values):
        n_rows = int(shape[0])
        counts = np.bincount(rows, minlength=n_rows).astype(np.int64)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, np.asarray(cols, dtype=np.int64), np.asarray(values, np.float64)

    def ccs_from_coo(self, shape, rows, cols, values):
        n_rows, n_cols = int(shape[0]), int(shape[1])
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        # column-major: one key col · n_rows + row, ties in input order
        order, _ = row_major_order((cols, rows), (n_cols, n_rows))
        counts = np.bincount(cols, minlength=n_cols).astype(np.int64)
        indptr = np.zeros(n_cols + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, rows[order], np.asarray(values, dtype=np.float64)[order]

    # ------------------------------------------------------------------
    # CFS wire packing
    # ------------------------------------------------------------------
    def pack_segments(self, segments: Sequence[np.ndarray]) -> np.ndarray:
        parts = [np.asarray(s).astype(np.float64, copy=False) for s in segments]
        if not parts:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(parts)

    def unpack_segment(self, data, offset, length, dtype):
        return data[offset : offset + length].astype(dtype)

    # ------------------------------------------------------------------
    # ED special buffer
    # ------------------------------------------------------------------
    def ed_encode(self, n_seg, counts, seg_of, idx_wire, values) -> np.ndarray:
        counts = np.asarray(counts, dtype=np.int64)
        nnz = len(values)
        data = np.empty(n_seg + 2 * nnz, dtype=np.float64)
        # Segment start offsets in the wire buffer: seg i begins at
        # i + 2 * (nnz in segments < i); its R_i sits there, pairs follow.
        seg_starts = np.arange(n_seg, dtype=np.int64)
        if n_seg:
            seg_starts += 2 * np.concatenate(([0], np.cumsum(counts[:-1])))
        data[seg_starts] = counts
        if nnz:
            # nonzeros arrive grouped by segment; position within segment:
            first_of_seg = np.concatenate(([0], np.cumsum(counts)))[seg_of]
            within = np.arange(nnz, dtype=np.int64) - first_of_seg
            c_pos = seg_starts[seg_of] + 1 + 2 * within
            data[c_pos] = idx_wire
            data[c_pos + 1] = values
        return data

    def ed_decode_counts(self, data: np.ndarray, n_seg: int):
        starts: list[int] = []
        step = starts.append
        pos = 0
        try:
            view = memoryview(data)
            for _ in range(n_seg):  # sequential: R_i's position depends on R_{<i}
                step(pos)
                pos += 1 + 2 * int(view[pos])
        except (IndexError, OverflowError, ValueError):
            self._raise_first_fault(data, starts, pos)
        seg_starts = np.array(starts, dtype=np.int64)
        raw = data[seg_starts]
        if pos != len(data) or not ((raw >= 0) & (raw == np.trunc(raw))).all():
            self._raise_first_fault(data, starts, pos)
        return raw.astype(np.int64), seg_starts

    @staticmethod
    def _raise_first_fault(data: np.ndarray, starts: list, pos: int):
        """Raise what the checked walk (the python oracle) raises first.

        Up to the first fault the unchecked walk stepped exactly where the
        checked walk steps, so that fault is the first recorded start that
        lies past the end or holds a count that is not a non-negative
        integer fitting int64; failing both, the walk ended off the end.
        """
        end = len(data)
        # only the start whose read raised can lie outside [-end, end)
        last = [min(max(s, -1), end) for s in starts[-1:]]
        at = np.array(starts[:-1] + last, dtype=np.int64)
        inside = (at >= 0) & (at < end)
        raw = np.full(len(at), np.nan)
        raw[inside] = data[at[inside]]
        ok = inside & (raw >= 0) & (raw == np.trunc(raw)) & (raw < 2.0**63)
        if ok.all():
            raise ValueError(f"corrupt encoded buffer: walked {pos} of {end} elements")
        i = int(np.argmin(ok))
        if not inside[i]:
            raise ValueError(
                f"corrupt encoded buffer: walked past the end at segment {i}"
            )
        r = data[at[i]]
        c = int(r)  # NaN and the infinities raise here, as in the oracle
        if c < 0 or r != c:
            raise ValueError(
                f"corrupt encoded buffer: segment {i} count {r!r} is not a "
                "non-negative integer"
            )
        np.int64(c)  # a count past int64 overflows, as the oracle's store does
        raise AssertionError("unreachable: the count fits and is valid")

    def ed_decode_pairs(self, data, counts, seg_starts, indptr):
        nnz = int(indptr[-1])
        if not nnz:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        first_of_seg = np.repeat(indptr[:-1], counts)
        within = np.arange(nnz, dtype=np.int64) - first_of_seg
        c_pos = np.repeat(seg_starts, counts) + 1 + 2 * within
        wire_idx = data[c_pos].astype(np.int64)
        values = data[c_pos + 1].copy()
        return wire_idx, values

    # ------------------------------------------------------------------
    # index conversion
    # ------------------------------------------------------------------
    def shift_indices(self, idx, delta):
        return idx + delta

    def gather_indices(self, idx, table):
        return table[idx]

    def build_index_lookup(self, global_ids, size):
        lookup = np.full(size, -1, dtype=np.int64)
        lookup[global_ids] = np.arange(len(global_ids), dtype=np.int64)
        return lookup

    # ------------------------------------------------------------------
    # SpMV traversals
    # ------------------------------------------------------------------
    @staticmethod
    def _expand_ptr(indptr: np.ndarray, n: int) -> np.ndarray:
        return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))

    def spmv_crs(self, shape, indptr, indices, values, x):
        y = np.zeros(shape[0], dtype=np.float64)
        np.add.at(y, self._expand_ptr(indptr, shape[0]), values * x[indices])
        return y

    def spmv_ccs(self, shape, indptr, indices, values, x):
        y = np.zeros(shape[0], dtype=np.float64)
        np.add.at(y, indices, values * x[self._expand_ptr(indptr, shape[1])])
        return y

    def spmv_coo(self, shape, rows, cols, values, x):
        y = np.zeros(shape[0], dtype=np.float64)
        np.add.at(y, rows, values * x[cols])
        return y

    def spmv_t_crs(self, shape, indptr, indices, values, x):
        y = np.zeros(shape[1], dtype=np.float64)
        np.add.at(y, indices, values * x[self._expand_ptr(indptr, shape[0])])
        return y

    def spmv_t_ccs(self, shape, indptr, indices, values, x):
        y = np.zeros(shape[1], dtype=np.float64)
        np.add.at(y, self._expand_ptr(indptr, shape[1]), values * x[indices])
        return y

    def spmv_t_coo(self, shape, rows, cols, values, x):
        y = np.zeros(shape[1], dtype=np.float64)
        np.add.at(y, cols, values * x[rows])
        return y

    # ------------------------------------------------------------------
    # SpGEMM expansion
    # ------------------------------------------------------------------
    def spgemm_expand(self, a_rows, a_cols, a_values, b_indptr, b_indices, b_values):
        rows_out: list[np.ndarray] = []
        cols_out: list[np.ndarray] = []
        vals_out: list[np.ndarray] = []
        b_counts = np.diff(b_indptr)
        for k in np.unique(a_cols):
            nnz_bk = int(b_counts[k])
            if nnz_bk == 0:
                continue
            mask = a_cols == k
            ar = a_rows[mask]
            av = a_values[mask]
            lo, hi = int(b_indptr[k]), int(b_indptr[k + 1])
            b_cols = b_indices[lo:hi]
            b_vals = b_values[lo:hi]
            rows_out.append(np.repeat(ar, nnz_bk))
            cols_out.append(np.tile(b_cols, len(ar)))
            vals_out.append(np.outer(av, b_vals).ravel())
        if not rows_out:
            z = np.empty(0, dtype=np.int64)
            return z, z, np.empty(0, dtype=np.float64)
        return (
            np.concatenate(rows_out),
            np.concatenate(cols_out),
            np.concatenate(vals_out),
        )
