"""Fault injection and reliable delivery for the simulated multicomputer.

The paper's Section 4 cost model assumes every host→processor message
arrives intact and in order.  Real distributed-memory machines (and the
modern fleets the ROADMAP points at) do not get that for free: links drop
and corrupt frames, NICs duplicate them, switches reorder them, nodes
stall or crash transiently.  This package adds that reliability dimension
to the simulator without perturbing the fault-free reproduction:

* :class:`FaultSpec` — a declarative, JSON-loadable description of a fault
  plan (per-message drop/duplicate/reorder/corrupt probabilities, per-
  processor slowdown and transient-crash behaviour, and the retry policy);
* :class:`FaultInjector` — a deterministic, seedable engine that turns the
  spec into per-send-attempt outcomes and keeps per-phase fault counters;
* :mod:`~repro.faults.checksum` — CRC-32 wire checksums over every wire
  buffer (CFS packed ``RO/CO/VL``, the ED special buffer ``B``, SFC dense
  blocks), plus the deterministic bit-flip used to model corruption;
* :class:`~repro.faults.link.ReliableLink` — the reliable-delivery
  protocol, the machine's wire when an injector is attached: every send
  attempt (original or resend) is charged the full
  ``T_Startup + m·T_Data·hops`` through the existing
  :class:`~repro.machine.cost_model.CostModel`, failed attempts
  additionally charge an exponential-backoff timeout, the trace gains
  ``RETRY``/``FAULT`` event kinds so the retry tax is visible per phase,
  and fail-stop deaths are detected after ``detect_after`` missed acks.

With no injector attached (``Machine(..., faults=None)``, the default) the
machine sends through its perfect link: the trace and every charged cost
are byte-identical to the fault-free simulator, which the golden-trace
tests pin.

See DESIGN.md §"Fault model" for the taxonomy and accounting contract.
"""

from .checksum import (
    CorruptFrameError,
    corrupt_payload,
    payload_checksum,
    payload_wire_data,
    wire_checksum,
)
from .injector import Attempt, FaultInjector
from .spec import CrashSpec, FailStopSpec, FaultSpec, RetryPolicy, SlowdownSpec
from .stats import FaultStats

__all__ = [
    "Attempt",
    "CorruptFrameError",
    "CrashSpec",
    "FailStopSpec",
    "FaultInjector",
    "FaultSpec",
    "FaultStats",
    "RetryPolicy",
    "SlowdownSpec",
    "corrupt_payload",
    "payload_checksum",
    "payload_wire_data",
    "wire_checksum",
]
