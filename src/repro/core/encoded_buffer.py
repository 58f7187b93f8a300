"""The ED scheme's *special buffer* ``B`` (paper Section 3.3, Figure 6).

For the CRS method the buffer stores, for each row ``i`` of a local sparse
array:

    R_i, C_{i,0}, V_{i,0}, C_{i,1}, V_{i,1}, ...

where ``R_i`` is the number of nonzeros in row ``i`` and the ``C``/``V``
pairs are the (global) column index and value of each nonzero, alternating
exactly as Figure 6 draws them.  For the CCS method the roles of rows and
columns swap.  Wire size is therefore ``n_segments + 2·nnz`` elements —
the term that makes ED's distribution time the smallest of the three
schemes (Remark 1).

Encoding cost (charged to the host): one scan op per array element plus
three ops per nonzero (bump ``R_i``, write ``C``, write ``V``) — the
paper's ``n²(1+3s)``.  Decoding cost (charged to the receiving processor):
``RO`` by prefix sum (one init plus one add per segment), one move per
``C`` and per ``V``, plus one conversion op per nonzero when the
index-conversion case demands it — the paper's
``⌈n/p⌉·n·(2s′+1/n)+1`` (row partition, CRS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..kernels import current_backend
from ..machine.packing import MAX_EXACT_INT
from ..sparse.ccs import CCSMatrix
from ..sparse.coo import COOMatrix, row_major_order
from ..sparse.crs import CRSMatrix
from .index_conversion import ConversionSpec

__all__ = ["EncodedBuffer"]


@dataclass(frozen=True)
class EncodedBuffer:
    """An encoded local sparse array, ready to be sent as one message.

    Attributes
    ----------
    data:
        Flat ``float64`` wire buffer in the Figure 6 layout.  Indices inside
        are **0-based global** (the paper's figures print them 1-based; use
        :meth:`to_paper_format` for figure-exact output).
    mode:
        ``"crs"`` (segments are rows) or ``"ccs"`` (segments are columns).
    local_shape:
        Shape of the local sparse array this encodes.
    """

    data: np.ndarray
    mode: Literal["crs", "ccs"]
    local_shape: tuple[int, int]

    @property
    def n_segments(self) -> int:
        """Rows (CRS) or columns (CCS) of the encoded local array."""
        return self.local_shape[0] if self.mode == "crs" else self.local_shape[1]

    @property
    def n_elements(self) -> int:
        """Wire size in elements: ``n_segments + 2·nnz``."""
        return int(len(self.data))

    @property
    def nnz(self) -> int:
        return (self.n_elements - self.n_segments) // 2

    @property
    def checksum(self) -> int:
        """CRC-32 of the wire bytes (the reliable-delivery frame check)."""
        from ..faults.checksum import wire_checksum

        return wire_checksum(self.data)

    # ------------------------------------------------------------------
    # encoding (host side)
    # ------------------------------------------------------------------
    @classmethod
    def encode(
        cls,
        local: COOMatrix,
        mode: Literal["crs", "ccs"],
        conversion: ConversionSpec,
    ) -> tuple["EncodedBuffer", int]:
        """Encode a local sparse array (local indices) into a special buffer.

        ``conversion`` maps the stored dimension's local indices to the
        global indices the wire carries.  Returns ``(buffer, encode_ops)``
        with ``encode_ops = local_elements + 3·nnz`` (the dense-scan model
        the paper charges the host for).
        """
        lr, lc = local.shape
        if mode == "crs":
            counts = local.row_counts()
            seg_of = local.rows
            idx_wire = conversion.to_global(local.cols)
            vals = local.values
        elif mode == "ccs":
            counts = local.col_counts()
            order, _ = row_major_order((local.cols, local.rows), (lc, lr))
            seg_of = local.cols[order]
            idx_wire = conversion.to_global(local.rows[order])
            vals = local.values[order]
        else:
            raise ValueError(f"mode must be 'crs' or 'ccs', got {mode!r}")
        n_seg = len(counts)
        nnz = local.nnz
        if nnz and (
            int(idx_wire.max()) > MAX_EXACT_INT or int(idx_wire.min()) < -MAX_EXACT_INT
        ):
            raise OverflowError(
                "encoded buffer: wire indices outside ±2**53 cannot ride the "
                "float64 wire exactly"
            )
        # nonzeros are already grouped by segment (canonical COO for CRS,
        # the column-major sort above for CCS); the backend lays out the
        # Figure 6 R_i, C, V, C, V, ... stream (vectorised or per-element).
        data = current_backend().ed_encode(n_seg, counts, seg_of, idx_wire, vals)
        buf = cls(data=data, mode=mode, local_shape=(lr, lc))
        encode_ops = lr * lc + 3 * nnz
        return buf, encode_ops

    # ------------------------------------------------------------------
    # decoding (processor side)
    # ------------------------------------------------------------------
    def decode(self, conversion: ConversionSpec):
        """Decode into a compressed local array (local indices).

        Returns ``(matrix, decode_ops)`` where ``matrix`` is a
        :class:`CRSMatrix` (mode ``"crs"``) or :class:`CCSMatrix` and
        ``decode_ops = 1 + n_segments + 2·nnz + conversion·nnz``:
        ``RO[0]`` init, one add per segment for the prefix sum, one move per
        ``C`` and ``V``, one subtract/lookup per nonzero when converting.
        """
        n_seg = self.n_segments
        kernels = current_backend()
        # sequential walk: R_i's position depends on R_{<i}; raises on a
        # corrupt buffer (negative / non-integral counts, bad walk length)
        counts, seg_starts = kernels.ed_decode_counts(self.data, n_seg)
        nnz = int(counts.sum())
        indptr = np.zeros(n_seg + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        wire_idx, values = kernels.ed_decode_pairs(
            self.data, counts, seg_starts, indptr
        )
        local_idx = conversion.to_local(wire_idx)
        if self.mode == "crs":
            matrix = CRSMatrix(self.local_shape, indptr, local_idx, values)
        else:
            matrix = CCSMatrix(self.local_shape, indptr, local_idx, values)
        decode_ops = 1 + n_seg + 2 * nnz + conversion.ops_per_nonzero * nnz
        return matrix, decode_ops

    # ------------------------------------------------------------------
    # figure-exact view
    # ------------------------------------------------------------------
    def to_paper_format(self) -> list[float]:
        """The buffer exactly as printed in Figures 6–7.

        The paper's ``C_{i,j}`` entries are 0-based (like its ``CO``), so
        this is simply the wire buffer as a plain list of floats.
        """
        return [float(x) for x in self.data]
