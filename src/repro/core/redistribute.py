"""Sparse array redistribution between partition plans.

The paper's related work (Bandera & Zapata, "Sparse Matrix Block-Cyclic
Redistribution", IPPS 1999 — reference [3]) studies the follow-on problem:
an application changes phase and the *already distributed* sparse array
must move from one partition to another (row → mesh, block → block-cyclic,
…) without materialising it on the host.

This module implements that operation on our machine, reusing the ED
scheme's insight: each processor encodes the intersection of its current
block with every destination block into a coordinate-pair special buffer
(``count, (row, col, value)...`` triplets — coordinates are *global*, so no
per-hop conversion tables are needed), sends the buffers point-to-point,
and each destination decodes and recompresses.  Splitting a block is the
partition phase's own owner-then-bucket step: one
:meth:`~repro.partition.base.PartitionPlan.owners` lookup per nonzero, then
one stable bucket pass that keeps each destination's nonzeros in the
block's order.  :func:`move_blocks` is that mover; :func:`redistribute`
and the peer recovery of :mod:`repro.recovery` call it.

Cost accounting mirrors the distribution phase: encode/decode are one op
per written element plus one scan op per stored nonzero examined; each
message costs ``T_Startup + elements·T_Data``.  Sends are charged to the
*sender's* timeline and, as in the paper's model, senders operate in
parallel with each other (the phase ends when the slowest sender-then-
receiver chain finishes; we account senders and receivers as the two
parallel pools of the DISTRIBUTION phase: phase time = max sender time +
max receiver time, which the ledger realises as proc-time maxima because
hosts are uninvolved).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Type

import numpy as np

from ..machine.machine import HOST, Machine
from ..machine.trace import Phase
from ..partition.base import BlockAssignment, PartitionPlan, _bucket
from ..sparse.coo import COOMatrix
from .base import LOCAL_KEY, CompressedLocal, compression_kind

__all__ = [
    "RedistributionResult",
    "Source",
    "assemble_block",
    "move_blocks",
    "redistribute",
]

#: where one old-plan block is now: its sender (a rank of the roster the
#: machine addresses, or ``HOST`` for a host-side replica) and the block
Source = tuple[int, CompressedLocal]


def assemble_block(
    machine: Machine,
    assignment: BlockAssignment,
    pieces: list[np.ndarray],
    global_shape: tuple[int, int],
    compression: Type[CompressedLocal],
) -> CompressedLocal:
    """Decode triplet buffers into this rank's compressed local block.

    The receiving end of :func:`move_blocks`: decodes every buffer,
    converts global → local coordinates, recompresses, charges the ops to
    the DISTRIBUTION phase and stores the result under ``LOCAL_KEY``.
    """
    rows_parts, cols_parts, vals_parts = [], [], []
    decode_ops = 0
    for buf in pieces:
        count = len(buf) // 3
        rows_parts.append(buf[:count].astype(np.int64))
        cols_parts.append(buf[count : 2 * count].astype(np.int64))
        vals_parts.append(buf[2 * count :])
        decode_ops += 3 * count
    g_rows = np.concatenate(rows_parts) if rows_parts else np.empty(0, np.int64)
    g_cols = np.concatenate(cols_parts) if cols_parts else np.empty(0, np.int64)
    values = np.concatenate(vals_parts) if vals_parts else np.empty(0)
    # global -> local conversion: one lookup per coordinate pair
    row_lookup = np.full(global_shape[0], -1, dtype=np.int64)
    row_lookup[assignment.row_ids] = np.arange(len(assignment.row_ids))
    col_lookup = np.full(global_shape[1], -1, dtype=np.int64)
    col_lookup[assignment.col_ids] = np.arange(len(assignment.col_ids))
    l_rows = row_lookup[g_rows]
    l_cols = col_lookup[g_cols]
    if np.any(l_rows < 0) or np.any(l_cols < 0):
        raise ValueError(
            f"rank {assignment.rank} received a cell it does not own"
        )
    local_coo = COOMatrix(assignment.local_shape, l_rows, l_cols, values)
    compressed = compression.from_coo(local_coo)
    # decode + conversion + recompression (3 ops per nonzero)
    machine.charge_proc_ops(
        assignment.rank,
        decode_ops + 2 * len(values) + 3 * compressed.nnz,
        Phase.DISTRIBUTION,
        label="decode-recompress",
    )
    machine.processor(assignment.rank).store(LOCAL_KEY, compressed)
    return compressed


@dataclass(frozen=True)
class RedistributionResult:
    """Outcome of one redistribution."""

    source: str
    destination: str
    n_procs: int
    t_redistribution: float
    locals_: tuple[CompressedLocal, ...]
    messages: int
    elements_moved: int


def move_blocks(
    machine: Machine,
    old_plan: PartitionPlan,
    new_plan: PartitionPlan,
    compression: Type[CompressedLocal],
    sources: Iterable[Source],
    *,
    scan_label: str,
    encode_label: str,
    tag: str,
    phase: Phase,
    stage_empty_self: bool,
    charge_verify: bool,
) -> tuple[list[CompressedLocal], int, int]:
    """Move ``old_plan``'s blocks onto ``new_plan``'s; returns the new
    locals, the messages sent and the elements they carried.

    ``sources`` gives each old block's :data:`Source`, in old-plan order;
    it is read one block at a time, as that block is moved.  Per block the
    sender pays one ``scan_label`` op per stored nonzero (the owner
    lookup), then for each destination in ascending order three
    ``encode_label`` ops per forwarded nonzero and the message — a buffer
    for the sender itself is staged locally, at no wire cost.  With
    ``stage_empty_self`` the sender stages its own buffer even when it is
    empty.  Each destination then drains its ``tag`` messages — verifying
    their checksums at a charge in ``phase`` when ``charge_verify`` — and
    :func:`assemble_block` decodes them.
    """
    compression_kind(compression)  # an unknown compression fails up front
    if old_plan.global_shape != new_plan.global_shape:
        raise ValueError(
            f"plans cover different arrays: {old_plan.global_shape} vs "
            f"{new_plan.global_shape}"
        )

    def charge(sender: int, n_ops: int, label: str) -> None:
        if sender == HOST:
            machine.charge_host_ops(n_ops, phase, label=label)
        else:
            machine.charge_proc_ops(sender, n_ops, phase, label=label)

    messages = elements = 0
    staged: list[list[np.ndarray]] = [[] for _ in new_plan]
    for assignment, (sender, block) in zip(old_plan, sources):
        if block.shape != assignment.local_shape:
            raise ValueError(
                f"old rank {assignment.rank}: block shape {block.shape} does "
                f"not match the plan {assignment.local_shape}"
            )
        local = block.to_coo()
        g_rows = assignment.row_ids[local.rows]
        g_cols = assignment.col_ids[local.cols]
        owners = new_plan.owners(g_rows, g_cols)
        charge(sender, block.nnz, scan_label)
        parts = _bucket(owners, new_plan.n_procs, (g_rows, g_cols, local.values))
        for dst, (rows, cols, values) in enumerate(parts):
            if not len(values) and not (stage_empty_self and dst == sender):
                continue
            buffer = np.concatenate(
                [rows.astype(np.float64), cols.astype(np.float64), values]
            )
            charge(sender, 3 * len(values), encode_label)
            if dst == sender:
                staged[dst].append(buffer)  # stays local
            else:
                machine.send(dst, buffer, len(buffer), phase, src=sender, tag=tag)
                messages += 1
                elements += len(buffer)

    locals_: list[CompressedLocal] = []
    for assignment in new_plan:
        pieces = staged[assignment.rank]
        while True:
            try:
                message = machine.receive(
                    assignment.rank, tag, phase=phase if charge_verify else None
                )
            except LookupError:
                break
            pieces.append(message.payload)
        locals_.append(
            assemble_block(
                machine, assignment, pieces, new_plan.global_shape, compression
            )
        )
    return locals_, messages, elements


def redistribute(
    machine: Machine,
    old_plan: PartitionPlan,
    new_plan: PartitionPlan,
    compression: Type[CompressedLocal],
) -> RedistributionResult:
    """Move the distributed array from ``old_plan`` ownership to ``new_plan``.

    Requires a prior scheme run against ``old_plan`` on this machine (each
    processor holds its compressed local under ``LOCAL_KEY``).  On return
    every processor holds the ``new_plan`` block instead, and the cost is
    recorded in the ledger's DISTRIBUTION phase.
    """
    if old_plan.n_procs != machine.n_procs or new_plan.n_procs != machine.n_procs:
        raise ValueError("both plans must match the machine's processor count")
    sources = (
        (a.rank, machine.processor(a.rank).load(LOCAL_KEY)) for a in old_plan
    )
    locals_, messages, elements = move_blocks(
        machine, old_plan, new_plan, compression, sources,
        scan_label="split-scan", encode_label="encode", tag="redistribute",
        phase=Phase.DISTRIBUTION, stage_empty_self=True, charge_verify=False,
    )
    return RedistributionResult(
        source=old_plan.method,
        destination=new_plan.method,
        n_procs=machine.n_procs,
        t_redistribution=machine.trace.elapsed(Phase.DISTRIBUTION),
        locals_=tuple(locals_),
        messages=messages,
        elements_moved=elements,
    )
