"""Recovery policies: run a scheme (or an app) through fail-stop failures.

Two scheme-level policies (ISSUE: *detection, checkpointed recovery, and
degraded-mode redistribution*), both exposed through
:func:`run_with_recovery`:

``host-resend``
    The distribution phase is host-driven, and the host still owns the
    global sparse array — so when a rank dies mid-distribution the host
    confirms the failure (paying the detection timeouts), re-partitions
    the array over the survivors and simply re-drives the whole scheme on
    the shrunken roster.  Wasted work from the aborted round stays charged.

``peer-redistribute``
    The paper-faithful degraded-mode variant: the *old* partition's blocks
    are first completed under the original plan — the machine addresses
    the original roster with a host-side ghost slot for each dead rank —
    then every block is checkpointed at the host and the survivors absorb
    the lost partition point-to-point with the ED-style coordinate-pair
    wire format of :mod:`repro.core.redistribute`.  A death *during*
    recovery falls back to sourcing every block from the host checkpoints
    (survivor state may already be half-overwritten).

Each policy only chooses which roster the machine addresses
(:meth:`~repro.machine.machine.Machine.remap`): the original one with
ghosts, or the dense survivor roster ``0..p'-1``.  Scheme, app and
recovery code then calls the plain machine.

Both policies terminate: every failed round permanently removes at least
one rank, and the injector always spares at least one survivor.  Both end
with every survivor holding the block of a fresh ``p'``-processor plan —
byte-identical to a fault-free run on the surviving membership, which the
chaos suite pins — and with the machine addressing the survivors.

:class:`RecoveryRuntime` carries the same machinery into the iterative
apps: it checkpoints the current plan's locals, and on a mid-iteration
:class:`~repro.machine.membership.DeadRankError` restores a degraded plan
from the checkpoints so the app can replay the interrupted iteration (its
vectors live host-side and are never lost).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Type, Union

from ..core.base import (
    LOCAL_KEY,
    CompressedLocal,
    DistributionScheme,
    SchemeResult,
    compression_kind,
)
from ..core.redistribute import Source, move_blocks
from ..core.registry import get_compression, get_partition, get_scheme
from ..machine.machine import HOST, DeadRankError, Machine
from ..machine.trace import Phase
from ..partition.base import PartitionMethod, PartitionPlan
from ..sparse.coo import COOMatrix
from .checkpoint import CHECKPOINT_KEY, checkpoint_locals, get_checkpoint
from .summary import RecoverySummary

__all__ = [
    "POLICIES",
    "RecoveryRuntime",
    "peer_redistribute",
    "run_with_recovery",
]

#: the scheme-level recovery policies run_with_recovery understands
POLICIES = ("host-resend", "peer-redistribute")

_PHASES = (Phase.DISTRIBUTION, Phase.COMPRESSION, Phase.COMPUTE)


def _snapshot(machine: Machine) -> tuple[int, int, float]:
    """(messages, elements, elapsed-ms) across all charged phases so far."""
    msgs = elems = 0
    elapsed = 0.0
    for ph in _PHASES:
        b = machine.trace.breakdown(ph)
        msgs += b.n_messages
        elems += b.elements_sent
        elapsed += b.elapsed
    return msgs, elems, elapsed


def _confirm(machine: Machine, err: DeadRankError, phase: Phase) -> None:
    """Make sure the host has *paid for* knowing ``err.rank`` is dead."""
    if machine.membership.is_alive(err.rank):
        machine.confirm_failure(err.rank, phase)
    machine.purge_mailboxes()


def _summary(
    machine: Machine,
    policy: str,
    *,
    rounds: int,
    snapshot: tuple[int, int, float] | None,
    failure_sequence: list[int],
    checkpoint_elements: int = 0,
    rollbacks: int = 0,
) -> RecoverySummary:
    m = machine.membership
    rec_msgs = rec_elems = 0
    rec_time = 0.0
    if snapshot is not None:
        msgs, elems, elapsed = _snapshot(machine)
        rec_msgs = msgs - snapshot[0]
        rec_elems = elems - snapshot[1]
        rec_time = elapsed - snapshot[2]
    return RecoverySummary(
        policy=policy,
        failed_ranks=tuple(m.dead),
        survivor_ranks=tuple(m.survivors),
        epoch=m.epoch,
        detections=len(m.detections),
        missed_acks=m.missed_acks_total,
        detection_time_ms=m.detection_time_ms,
        recovery_rounds=rounds,
        recovery_messages=rec_msgs,
        recovery_elements=rec_elems,
        recovery_time_ms=rec_time,
        checkpoint_elements=checkpoint_elements,
        rollbacks=rollbacks,
        failure_sequence=tuple(failure_sequence),
    )


# ----------------------------------------------------------------------
# peer redistribution (degraded-mode data movement)
# ----------------------------------------------------------------------
def peer_redistribute(
    machine: Machine,
    old_plan: PartitionPlan,
    new_plan: PartitionPlan,
    compression: Type[CompressedLocal],
    *,
    sources: dict[int, Source],
    phase: Phase = Phase.DISTRIBUTION,
) -> list[CompressedLocal]:
    """Move ``old_plan`` blocks onto the survivors' ``new_plan`` blocks.

    ``machine`` addresses the survivor roster ``new_plan`` covers.
    ``sources[old_rank]`` is that block's :data:`~repro.core.redistribute.Source`:
    ``(rank, block)`` for a block on live processor ``rank`` of that roster
    (sent point-to-point, ED-style triplet buffers), ``(HOST, block)`` for
    a host-side replica (ghost state or checkpoint; the host sends it).

    The move is :func:`repro.core.redistribute.move_blocks`, charged as
    ``recover-scan``/``recover-encode`` ops and ``recover`` messages in
    ``phase``, with each receive's checksum verification charged there
    too.

    Raises :class:`DeadRankError` if a rank dies mid-move — the caller
    retries on the shrunken roster, sourcing from checkpoints only.
    """
    with machine.obs.span(
        "recovery.peer_redistribute",
        phase=phase.value,
        old_p=old_plan.n_procs,
        new_p=new_plan.n_procs,
    ):
        return move_blocks(
            machine, old_plan, new_plan, compression,
            (sources[a.rank] for a in old_plan),
            scan_label="recover-scan", encode_label="recover-encode",
            tag="recover", phase=phase, stage_empty_self=False,
            charge_verify=True,
        )[0]


# ----------------------------------------------------------------------
# scheme-level recovery driver
# ----------------------------------------------------------------------
def run_with_recovery(
    scheme: Union[str, DistributionScheme],
    machine: Machine,
    global_matrix: COOMatrix,
    partition: Union[str, PartitionMethod],
    compression: Union[str, Type[CompressedLocal]],
    *,
    policy: str = "host-resend",
) -> SchemeResult:
    """Run ``scheme`` on ``machine``, surviving fail-stop rank deaths.

    Returns a :class:`SchemeResult` for the *surviving* membership: its
    plan covers ``p'`` virtual processors and its ``locals_`` are exactly
    what a fault-free run on a ``p'``-processor machine would produce
    (the recovery invariant, pinned by ``tests/recovery/``).  The machine
    is left addressing those survivors.  All aborted work, detection
    timeouts and recovery traffic stay charged in the machine's trace and
    are reported in ``result.recovery_summary``.

    With no fail-stop failure the scheme runs exactly once, unmodified.
    """
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    if isinstance(partition, str):
        partition = get_partition(partition)
    if isinstance(compression, str):
        compression = get_compression(compression)
    if policy not in POLICIES:
        raise ValueError(f"unknown recovery policy {policy!r}; pick from {POLICIES}")
    if policy == "host-resend":
        return _run_host_resend(scheme, machine, global_matrix, partition, compression)
    return _run_peer(scheme, machine, global_matrix, partition, compression)


def _run_host_resend(
    scheme: DistributionScheme,
    machine: Machine,
    global_matrix: COOMatrix,
    partition: PartitionMethod,
    compression: Type[CompressedLocal],
) -> SchemeResult:
    """Re-partition over the survivors and re-drive the scheme from the host."""
    rounds = 0
    snapshot: tuple[int, int, float] | None = None
    failure_sequence: list[int] = []
    while True:
        machine.remap(machine.membership.survivors)
        plan = partition.plan(global_matrix.shape, machine.n_procs)
        try:
            result = scheme.run(machine, global_matrix, plan, compression)
            break
        except DeadRankError as err:
            if snapshot is None:
                snapshot = _snapshot(machine)
            failure_sequence.append(err.rank)
            _confirm(machine, err, Phase.DISTRIBUTION)
            rounds += 1
            machine.obs.count(
                "repro_recovery_rounds_total",
                help="Recovery rounds driven after fail-stop deaths",
                policy="host-resend",
            )
    return replace(
        result,
        recovery_summary=_summary(
            machine,
            "host-resend",
            rounds=rounds,
            snapshot=snapshot,
            failure_sequence=failure_sequence,
        ),
    )


def _run_peer(
    scheme: DistributionScheme,
    machine: Machine,
    global_matrix: COOMatrix,
    partition: PartitionMethod,
    compression: Type[CompressedLocal],
) -> SchemeResult:
    """Complete the old plan with host-side ghosts, checkpoint, redistribute."""
    kind = compression_kind(compression)
    rounds = 0
    snapshot: tuple[int, int, float] | None = None
    failure_sequence: list[int] = []
    checkpoint_elements = 0
    old_plan = partition.plan(global_matrix.shape, machine.n_procs)

    # -- phase A: produce the full old-plan state, ghosting dead slots -----
    while True:
        dead = machine.membership.dead
        machine.remap(ghosts=dead)
        try:
            base_result = scheme.run(machine, global_matrix, old_plan, compression)
            if not dead:
                # clean run: nothing to recover
                return replace(
                    base_result,
                    recovery_summary=_summary(
                        machine,
                        "peer-redistribute",
                        rounds=rounds,
                        snapshot=snapshot,
                        failure_sequence=failure_sequence,
                    ),
                )
            # replicate every old block at the host (live blocks gathered,
            # ghost blocks moved host-locally)
            checkpoint_elements = checkpoint_locals(
                machine, old_plan, phase=Phase.DISTRIBUTION
            )
            break
        except DeadRankError as err:
            if snapshot is None:
                snapshot = _snapshot(machine)
            failure_sequence.append(err.rank)
            _confirm(machine, err, Phase.DISTRIBUTION)
            rounds += 1
            machine.obs.count(
                "repro_recovery_rounds_total",
                help="Recovery rounds driven after fail-stop deaths",
                policy="peer-redistribute",
            )

    # -- phase B: survivors absorb the lost partition ----------------------
    from_checkpoints_only = False
    while True:
        survivors = machine.membership.survivors
        machine.remap(survivors)
        new_plan = partition.plan(global_matrix.shape, machine.n_procs)
        blocks = machine.host_memory[CHECKPOINT_KEY]["blocks"]
        try:
            sources: dict[int, Source] = {}
            for a in old_plan:
                if not from_checkpoints_only and machine.membership.is_alive(a.rank):
                    rank = survivors.index(a.rank)
                    sources[a.rank] = (rank, machine.processor(rank).load(LOCAL_KEY))
                else:
                    sources[a.rank] = (HOST, blocks[a.rank])
            locals_ = peer_redistribute(
                machine, old_plan, new_plan, compression,
                sources=sources, phase=Phase.DISTRIBUTION,
            )
            break
        except DeadRankError as err:
            failure_sequence.append(err.rank)
            _confirm(machine, err, Phase.DISTRIBUTION)
            # survivor state may be half-overwritten: retry sourcing every
            # block from the immutable host checkpoints
            from_checkpoints_only = True
            rounds += 1
            machine.obs.count(
                "repro_recovery_rounds_total",
                help="Recovery rounds driven after fail-stop deaths",
                policy="peer-redistribute",
            )

    result = scheme._result(machine, global_matrix, new_plan, kind, locals_)
    return replace(
        result,
        recovery_summary=_summary(
            machine,
            "peer-redistribute",
            rounds=rounds,
            snapshot=snapshot,
            failure_sequence=failure_sequence,
            checkpoint_elements=checkpoint_elements,
        ),
    )


# ----------------------------------------------------------------------
# app-level recovery runtime (checkpoint / rollback)
# ----------------------------------------------------------------------
class RecoveryRuntime:
    """Checkpoint/rollback support for the iterative apps.

    Construct it after a successful scheme run: it points the machine at
    the surviving roster, gathers a host-side checkpoint of the current
    plan's locals (charged), then hands the apps a ``(machine, plan)``
    pair to compute against.  When an iteration dies with
    :class:`DeadRankError`, :meth:`handle` confirms the failure, restores
    a degraded ``p'`` plan purely from the checkpoints, refreshes the
    checkpoint under the new plan, leaves the machine addressing the new
    survivors and bumps :attr:`rollbacks` — the caller then simply
    replays the interrupted iteration (the app's vectors live host-side
    and were never lost).
    """

    def __init__(
        self,
        machine: Machine,
        plan: PartitionPlan,
        compression: Union[str, Type[CompressedLocal]],
        *,
        partition: Union[str, PartitionMethod, None] = None,
        phase: Phase = Phase.COMPUTE,
    ) -> None:
        if isinstance(compression, str):
            compression = get_compression(compression)
        if partition is None:
            partition = plan.method
        if isinstance(partition, str):
            partition = get_partition(partition)
        self.machine = machine
        self.compression = compression
        self.partition = partition
        self.phase = phase
        survivors = machine.membership.survivors
        if plan.n_procs != len(survivors):
            raise ValueError(
                f"plan has {plan.n_procs} blocks but {len(survivors)} ranks "
                "are alive"
            )
        machine.remap(survivors)
        self.plan = plan
        self.rollbacks = 0
        self.recovery_rounds = 0
        self.failure_sequence: list[int] = []
        self._snapshot: tuple[int, int, float] | None = None
        self.checkpoint_elements = checkpoint_locals(machine, plan, phase=phase)

    def handle(self, err: DeadRankError) -> None:
        """Repair the machine after a mid-iteration fail-stop death."""
        if self._snapshot is None:
            self._snapshot = _snapshot(self.machine)
        self.failure_sequence.append(err.rank)
        _confirm(self.machine, err, self.phase)
        with self.machine.obs.span(
            "recovery.rollback", rank=str(err.rank), phase=self.phase.value
        ):
            while True:
                self.recovery_rounds += 1
                self.machine.remap(self.machine.membership.survivors)
                new_plan = self.partition.plan(
                    self.plan.global_shape, self.machine.n_procs
                )
                ckpt = get_checkpoint(self.machine)
                if ckpt is None:  # pragma: no cover - defensive
                    raise RuntimeError("no checkpoint to recover from")
                sources: dict[int, Source] = {
                    a.rank: (HOST, ckpt["blocks"][a.rank])
                    for a in ckpt["plan"]
                }
                try:
                    peer_redistribute(
                        self.machine, ckpt["plan"], new_plan,
                        self.compression, sources=sources, phase=self.phase,
                    )
                    # the recovery round is complete: only now swap the
                    # checkpoint over to the new plan (a half-finished round
                    # must be able to restart from the old epoch's replicas)
                    self.checkpoint_elements += checkpoint_locals(
                        self.machine, new_plan, phase=self.phase
                    )
                    break
                except DeadRankError as err2:
                    self.failure_sequence.append(err2.rank)
                    _confirm(self.machine, err2, self.phase)
        self.plan = new_plan
        self.rollbacks += 1
        self.machine.obs.count(
            "repro_rollbacks_total",
            help="App-level checkpoint rollbacks after mid-iteration deaths",
        )

    def summary(self) -> RecoverySummary:
        """The app-level recovery report (policy ``"app-rollback"``)."""
        return _summary(
            self.machine,
            "app-rollback",
            rounds=self.recovery_rounds,
            snapshot=self._snapshot,
            failure_sequence=self.failure_sequence,
            checkpoint_elements=self.checkpoint_elements,
            rollbacks=self.rollbacks,
        )

    def __repr__(self) -> str:
        return (
            f"RecoveryRuntime(p'={self.plan.n_procs}, "
            f"rollbacks={self.rollbacks}, phase={self.phase.value})"
        )
