"""Fail-stop failure recovery: detection accounting, checkpoints, repair.

The fault layer (:mod:`repro.faults`) makes ranks die; the machine's
membership layer (:mod:`repro.machine.membership`) makes the host *pay* to
learn it.  This package is what runs afterwards: scheme-level recovery
policies (``host-resend`` and ``peer-redistribute``), host-side RO/CO/VL
checkpoint replicas, and the iterative-app checkpoint/rollback runtime.
All of it drives the plain machine; it only chooses, through
:meth:`~repro.machine.machine.Machine.remap`, which roster the machine's
rank arguments address.  See DESIGN.md §"Failure model".
"""

from .checkpoint import (
    CHECKPOINT_KEY,
    checkpoint_locals,
    copy_compressed,
    get_checkpoint,
    wire_elements,
)
from .manager import POLICIES, RecoveryRuntime, peer_redistribute, run_with_recovery
from .summary import RecoverySummary

__all__ = [
    "CHECKPOINT_KEY",
    "POLICIES",
    "RecoveryRuntime",
    "RecoverySummary",
    "checkpoint_locals",
    "copy_compressed",
    "get_checkpoint",
    "peer_redistribute",
    "run_with_recovery",
    "wire_elements",
]
