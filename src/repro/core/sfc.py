"""The Send-Followed-Compress (SFC) scheme — the classical baseline.

Phase order: partition → **distribute dense** → compress locally.

The host sends each processor its *entire* dense local array (zeros
included), so the distribution phase moves ``n²`` elements regardless of
sparsity — ``p·T_Startup + n²·T_Data`` under the row partition (Table 1).
Each processor then compresses its dense block with CRS/CCS at a cost of
one scan op per element plus three ops per nonzero, in parallel —
``⌈n/p⌉·n·(1+3s′)·T_Operation``.

Packing subtlety (visible in the paper's Tables 3 vs 4/5): a *row* block is
contiguous in the host's row-major global array, so it is sent "without
packing into buffers" (Section 4.1.1A).  Column and mesh blocks are strided,
so the host must gather them into a send buffer first — one move op per
element.  The receiver always stores the arrived buffer directly as its
dense local array (no unpack charge).  This is why the paper's measured SFC
distribution time for the column partition is ~2.4× the row partition's.
"""

from __future__ import annotations

from collections import deque
from typing import Type

import numpy as np

from ..machine.machine import Machine
from ..machine.trace import Phase
from ..partition.base import BlockAssignment, PartitionPlan
from ..sparse.coo import COOMatrix
from .base import LOCAL_KEY, CompressedLocal, DistributionScheme, SchemeResult, compression_kind

__all__ = ["SFCScheme", "dense_block_is_contiguous"]


def dense_block_is_contiguous(
    assignment: BlockAssignment, global_shape: tuple[int, int]
) -> bool:
    """True when the block is contiguous in the row-major global array.

    Exactly the full-width contiguous row blocks of the row partition
    qualify; those are sent straight out of the global array with zero
    packing ops.
    """
    return (
        assignment.rows_contiguous
        and assignment.cols_contiguous
        and len(assignment.col_ids) == global_shape[1]
    )


class SFCScheme(DistributionScheme):
    """partition → send dense local arrays → compress on each processor."""

    name = "sfc"

    def run(
        self,
        machine: Machine,
        global_matrix: COOMatrix,
        plan: PartitionPlan,
        compression: Type[CompressedLocal],
    ) -> SchemeResult:
        self._check_inputs(machine, global_matrix, plan)
        kind = compression_kind(compression)
        with machine.kernel_context():
            return self._run(machine, global_matrix, plan, compression, kind)

    def _run(self, machine, global_matrix, plan, compression, kind):
        obs = machine.obs
        # host peak memory: the dense blocks are allocated before the
        # partition phase's smaller arrays, so they take the memory the
        # last run's blocks freed rather than holes the small arrays split,
        # and each dense block is let go once it is sent (a sparse block
        # lives on while its plan keeps its extraction, as a warm
        # session's plans do)
        blocks = deque(np.zeros(a.local_shape) for a in plan)
        # -- phase 1: partition (untimed, per Section 4: "we do not
        # consider the data partition time") --------------------------------
        local_arrays = deque(plan.extract_all(global_matrix))

        # -- phase 2: distribution — dense blocks, sent in sequence ---------
        with obs.span("sfc.distribute", phase="distribution"):
            for assignment in plan:
                with obs.span("sfc.send", rank=assignment.rank):
                    dense, local = blocks.popleft(), local_arrays.popleft()
                    dense[local.rows, local.cols] = local.values
                    del local
                    n_elements = dense.size
                    if not dense_block_is_contiguous(
                        assignment, global_matrix.shape
                    ):
                        # strided block: gather into a send buffer, one
                        # move op per element
                        machine.charge_host_ops(
                            n_elements, Phase.DISTRIBUTION, label="pack-dense"
                        )
                    machine.send(
                        assignment.rank,
                        dense,
                        n_elements,
                        Phase.DISTRIBUTION,
                        tag="dense-block",
                    )

        # -- phase 3: compression — each processor, in parallel -------------
        # the rank pool runs every block's compress wherever the machine's
        # executor puts it (inline / worker process); each task verifies
        # its frame's wire checksum when fault injection is active and its
        # charges replay here in rank order, byte-identical to the serial
        # receive/compress/charge loop
        locals_ = []
        pool = machine.rank_pool()
        with obs.span("sfc.compress", phase="compression"):
            for assignment in plan:
                pool.submit(
                    assignment.rank, "sfc.compress", Phase.COMPRESSION,
                    frame=pool.take_frame(assignment.rank, "dense-block"),
                    kind=kind,
                )
            for assignment in plan:
                proc = machine.processor(assignment.rank)
                with obs.span("sfc.compress_local", rank=assignment.rank):
                    compressed = pool.result(assignment.rank)
                obs.record_compressed(self.name, compressed.nnz)
                proc.store(LOCAL_KEY, compressed)
                locals_.append(compressed)

        return self._result(machine, global_matrix, plan, kind, locals_)
