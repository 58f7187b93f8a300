"""Host-side checkpoint replicas of the distributed compressed locals.

The peer-redistribution recovery policy needs a copy of every block's
``RO``/``CO``/``VL`` arrays that survives the block owner's death.  In this
machine model the natural place is the host (it survives by assumption):
:func:`checkpoint_locals` gathers a *copy* of each processor's compressed
local array back to the host — charged as ordinary gather traffic, one
pack op per wire element on the processor plus the message cost on the
host's serial timeline — and stores the replicas in ``host_memory`` under
:data:`CHECKPOINT_KEY`, stamped with the membership epoch.

The gather addresses whatever roster the machine's rank map selects
(:meth:`~repro.machine.machine.Machine.remap`): a ghost slot's "gather"
is a host-local move (the ghost replica already lives host-side), and
under a survivor roster the replicas are keyed by the virtual ranks of
the plan they cover.
"""

from __future__ import annotations

from typing import Any

from ..core.base import LOCAL_KEY, CompressedLocal
from ..machine.machine import Machine
from ..machine.trace import Phase
from ..partition.base import PartitionPlan

__all__ = [
    "CHECKPOINT_KEY",
    "checkpoint_locals",
    "copy_compressed",
    "get_checkpoint",
    "wire_elements",
]

#: host-memory key under which the checkpoint replicas are stored
CHECKPOINT_KEY = "recovery_checkpoint"


def wire_elements(comp: CompressedLocal) -> int:
    """Elements of a compressed block's wire image (RO + CO + VL)."""
    return len(comp.indptr) + 2 * comp.nnz


def copy_compressed(comp: CompressedLocal) -> CompressedLocal:
    """A deep copy sharing no buffers with the original (the replica)."""
    return type(comp)(
        comp.shape, comp.indptr.copy(), comp.indices.copy(), comp.values.copy()
    )


def checkpoint_locals(
    machine: Machine, plan: PartitionPlan, *, phase: Phase = Phase.DISTRIBUTION
) -> int:
    """Replicate every rank's compressed local at the host.

    ``plan`` must be the plan whose blocks the processors the machine
    addresses currently hold.  Each rank packs its ``RO``/``CO``/``VL``
    wire image (one op per element) and sends the copy host-ward; the
    host stores the replicas keyed by the plan's rank, together with the
    plan and the membership epoch.  Returns the number of elements gathered (the
    checkpoint's wire footprint).

    May raise :class:`~repro.machine.membership.DeadRankError` if a doomed
    rank dies mid-gather — callers retry after confirming the failure.
    """
    elements = 0
    with machine.obs.span("recovery.checkpoint", phase=phase.value, p=plan.n_procs):
        for assignment in plan:
            comp = machine.processor(assignment.rank).load(LOCAL_KEY)
            if comp.shape != assignment.local_shape:
                raise ValueError(
                    f"rank {assignment.rank}: stored local shape {comp.shape} "
                    f"does not match the plan {assignment.local_shape}"
                )
            n = wire_elements(comp)
            machine.charge_proc_ops(
                assignment.rank, n, phase, label="checkpoint-pack"
            )
            machine.send_to_host(
                assignment.rank, copy_compressed(comp), n, phase, tag="checkpoint"
            )
            elements += n
        blocks: dict[int, CompressedLocal] = {}
        for _ in plan:
            msg = machine.host_receive("checkpoint")
            blocks[msg.src] = msg.payload
        machine.host_memory[CHECKPOINT_KEY] = {
            "plan": plan,
            "epoch": machine.membership.epoch,
            "blocks": blocks,
            "elements": elements,
        }
    machine.obs.count(
        "repro_checkpoint_elements_total",
        elements,
        help="Wire elements gathered into host-side checkpoints",
    )
    return elements


def get_checkpoint(machine: Machine) -> dict[str, Any] | None:
    """The current checkpoint record, or ``None`` if none was taken."""
    return machine.host_memory.get(CHECKPOINT_KEY)
