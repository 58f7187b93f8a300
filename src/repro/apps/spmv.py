"""Distributed sparse matrix–vector multiply on the simulated machine.

This is the workload the paper's introduction motivates: once a
distribution scheme has placed compressed local arrays on the processors,
scientific codes run kernels like ``y = A·x`` against them.  The kernel
works for *any* partition plan:

1. the host sends each processor the slice of ``x`` matching its owned
   columns (one message each, sequential);
2. each processor computes its partial product over its local rows
   (``2·nnz_local`` ops — one multiply, one add per stored element);
3. each processor sends its partial result back; the host scatters the
   partials into the global ``y`` (one add per received element — for row
   or column partitions this is a plain placement/reduction respectively).

All traffic and ops are charged to :data:`~repro.machine.trace.Phase.
COMPUTE`, so distribution-phase timings stay untouched and one machine can
run distribute-then-compute pipelines.

:func:`resilient_spmv` is the fail-stop-tolerant wrapper: it computes the
same product through a :class:`~repro.recovery.manager.RecoveryRuntime`,
replaying the multiply after the runtime repairs any rank death — the
checkpoint/rollback building block of the iterative apps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.base import LOCAL_KEY
from ..machine.machine import Machine
from ..machine.membership import DeadRankError
from ..machine.trace import Phase
from ..partition.base import PartitionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..recovery.manager import RecoveryRuntime

__all__ = ["distributed_spmv", "distributed_spmv_transpose", "resilient_spmv"]


def distributed_spmv(
    machine: Machine, plan: PartitionPlan, x: np.ndarray
) -> np.ndarray:
    """Compute ``y = A @ x`` against the distributed compressed locals.

    Requires a prior scheme run on ``machine`` with the same ``plan`` (each
    processor must hold its local array under ``LOCAL_KEY``).  Returns the
    assembled global ``y``; simulated cost is recorded under
    ``Phase.COMPUTE``.
    """
    n_rows, n_cols = plan.global_shape
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n_cols,):
        raise ValueError(f"x must have shape ({n_cols},), got {x.shape}")
    with machine.kernel_context():
        return _spmv_impl(machine, plan, x, n_rows)


def _spmv_impl(
    machine: Machine, plan: PartitionPlan, x: np.ndarray, n_rows: int
) -> np.ndarray:
    # 1. scatter the needed x slices
    for assignment in plan:
        x_local = x[assignment.col_ids]
        machine.send(
            assignment.rank, x_local, len(x_local), Phase.COMPUTE, tag="x-slice"
        )

    # 2. local partial products — rank tasks on the machine's executor;
    # the x-slice frame is checksum-verified (uncharged, phase=None like
    # the serial receive) and the stored local array travels by reference
    # (shipped to a worker once, then version-cached)
    pool = machine.rank_pool()
    for assignment in plan:
        pool.submit(
            assignment.rank, "spmv.partial", Phase.COMPUTE,
            frame=pool.take_frame(assignment.rank, "x-slice"),
            local=pool.ref(LOCAL_KEY),
            expected_shape=assignment.local_shape,
            transpose=False,
        )
    partials: list[np.ndarray] = []
    for assignment in plan:
        partials.append(pool.result(assignment.rank))

    # 3. gather and assemble (host adds each returned element once)
    y = np.zeros(n_rows, dtype=np.float64)
    for assignment, y_local in zip(plan, partials):
        machine.send_to_host(
            assignment.rank, y_local, len(y_local), Phase.COMPUTE, tag="y-partial"
        )
    for assignment in plan:
        msg = machine.host_receive("y-partial")
        np.add.at(y, plan[msg.src].row_ids, msg.payload)
        machine.charge_host_ops(len(msg.payload), Phase.COMPUTE, label="assemble")
    return y


def resilient_spmv(runtime: "RecoveryRuntime", x: np.ndarray) -> np.ndarray:
    """``y = A @ x`` that survives fail-stop rank deaths mid-multiply.

    Runs :func:`distributed_spmv` against the runtime's machine and
    current plan.  If a rank dies mid-iteration the runtime
    confirms the failure (detection timeouts charged), restores a degraded
    plan from its host-side checkpoints and the multiply is *replayed* on
    the shrunken machine — ``x`` lives host-side, so replaying the
    interrupted multiply is exactly a rollback to the last completed
    iteration.  Terminates because every failure permanently removes a
    rank and at least one always survives.
    """
    while True:
        try:
            return distributed_spmv(runtime.machine, runtime.plan, x)
        except DeadRankError as err:
            runtime.handle(err)


def distributed_spmv_transpose(
    machine: Machine, plan: PartitionPlan, x: np.ndarray
) -> np.ndarray:
    """Compute ``y = Aᵀ @ x`` against the distributed ``A`` — no transpose.

    Dual of :func:`distributed_spmv`: the host sends each processor the
    slice of ``x`` matching its owned *rows*, each processor computes a
    partial over its owned *columns* with the transpose kernel
    (``2·nnz`` ops), and the host accumulates partials into ``y`` indexed
    by column ownership.  Works for any partition plan; the distributed
    array itself is untouched.
    """
    n_rows, n_cols = plan.global_shape
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n_rows,):
        raise ValueError(f"x must have shape ({n_rows},), got {x.shape}")
    with machine.kernel_context():
        return _spmv_transpose_impl(machine, plan, x, n_cols)


def _spmv_transpose_impl(
    machine: Machine, plan: PartitionPlan, x: np.ndarray, n_cols: int
) -> np.ndarray:
    for assignment in plan:
        x_local = x[assignment.row_ids]
        machine.send(
            assignment.rank, x_local, len(x_local), Phase.COMPUTE, tag="xT-slice"
        )

    # rank tasks, exactly as in _spmv_impl but with the transpose kernel
    pool = machine.rank_pool()
    for assignment in plan:
        pool.submit(
            assignment.rank, "spmv.partial", Phase.COMPUTE,
            frame=pool.take_frame(assignment.rank, "xT-slice"),
            local=pool.ref(LOCAL_KEY),
            expected_shape=assignment.local_shape,
            transpose=True,
        )
    partials: list[np.ndarray] = []
    for assignment in plan:
        partials.append(pool.result(assignment.rank))

    y = np.zeros(n_cols, dtype=np.float64)
    for assignment, y_local in zip(plan, partials):
        machine.send_to_host(
            assignment.rank, y_local, len(y_local), Phase.COMPUTE, tag="yT-partial"
        )
    for assignment in plan:
        msg = machine.host_receive("yT-partial")
        np.add.at(y, plan[msg.src].col_ids, msg.payload)
        machine.charge_host_ops(len(msg.payload), Phase.COMPUTE, label="assemble-T")
    return y
