"""Cost ledger: phases, events and per-phase time breakdowns.

Every action on the simulated machine — an elementary operation batch, a
message — is recorded as an :class:`Event` charged to a :class:`Phase`.
:class:`PhaseBreakdown` then reduces events to the paper's two reported
quantities:

* ``T_Distribution`` — host-side pack + send/receive + receiver-side unpack
  of the distribution phase;
* ``T_Compression`` — compression/encoding/decoding work.

Reduction rule (matching Section 4's accounting): within a phase, host work
is *serial* (summed — the host packs and sends each local array in
sequence) while processor work is *parallel* (the slowest processor
determines the phase time):  ``phase_time = host_time + max_r proc_time[r]``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

from .topology import HOST

__all__ = ["Phase", "EventKind", "Event", "TraceLog", "PhaseBreakdown"]


class Phase(enum.Enum):
    """The three phases of a data distribution scheme, plus app compute."""

    PARTITION = "partition"
    COMPRESSION = "compression"
    DISTRIBUTION = "distribution"
    COMPUTE = "compute"


class EventKind(enum.Enum):
    OPS = "ops"          # elementary operations on array elements
    MESSAGE = "message"  # one send/receive pair (original or resend)
    RETRY = "retry"      # a failed attempt's timeout/backoff wait (fault mode)
    FAULT = "fault"      # an injected fault observation (drop/corrupt/...)


@dataclass(frozen=True)
class Event:
    """One charged action.

    ``actor`` is the rank whose time advances: the host for its own ops and
    for whole messages (sequential sends keep the host busy end-to-end); a
    processor rank for receiver-side ops.
    """

    phase: Phase
    kind: EventKind
    actor: int
    time: float
    quantity: int = 0          # ops count or message element count
    label: str = ""
    src: int | None = None     # messages only
    dst: int | None = None


@dataclass
class PhaseBreakdown:
    """Aggregated times for one phase.

    The fault-mode fields (``n_retries``, ``retry_time``, ``n_faults``,
    ``faults_by_label``) stay at their zero defaults on fault-free runs —
    the trace then contains no ``RETRY``/``FAULT`` events at all.
    """

    host_time: float = 0.0
    proc_times: dict[int, float] = field(default_factory=dict)
    n_messages: int = 0
    elements_sent: int = 0
    ops: int = 0
    n_retries: int = 0
    retry_time: float = 0.0
    n_faults: int = 0
    faults_by_label: dict[str, int] = field(default_factory=dict)

    @property
    def max_proc_time(self) -> float:
        return max(self.proc_times.values(), default=0.0)

    @property
    def elapsed(self) -> float:
        """The phase's contribution to total scheme time (see module doc)."""
        return self.host_time + self.max_proc_time


class TraceLog:
    """Append-only event log with per-phase aggregation.

    The one ledger of a run: :class:`PhaseBreakdown` and the observability
    layer's counters are both reductions over :attr:`events`.
    """

    def __init__(self) -> None:
        self.events: list[Event] = []

    def record(self, event: Event) -> None:
        self.events.append(event)

    # ------------------------------------------------------------------
    def phase_events(self, phase: Phase) -> list[Event]:
        return [e for e in self.events if e.phase is phase]

    def breakdown(self, phase: Phase) -> PhaseBreakdown:
        out = PhaseBreakdown()
        for e in self.phase_events(phase):
            if e.actor == HOST:
                out.host_time += e.time
            else:
                out.proc_times[e.actor] = out.proc_times.get(e.actor, 0.0) + e.time
            if e.kind is EventKind.MESSAGE:
                out.n_messages += 1
                out.elements_sent += e.quantity
            elif e.kind is EventKind.OPS:
                out.ops += e.quantity
            elif e.kind is EventKind.RETRY:
                out.n_retries += 1
                out.retry_time += e.time
            elif e.kind is EventKind.FAULT:
                out.n_faults += 1
                out.faults_by_label[e.label] = (
                    out.faults_by_label.get(e.label, 0) + 1
                )
        # pin the aggregate orders: rank order for per-processor times and
        # label order for fault counts, rather than first-event order —
        # consumers that serialise or zip over these dicts must see the
        # same sequence regardless of which rank's event happened to come
        # first (e.g. a reordered delivery under fault injection)
        out.proc_times = dict(sorted(out.proc_times.items()))
        out.faults_by_label = dict(sorted(out.faults_by_label.items()))
        return out

    def elapsed(self, phase: Phase) -> float:
        return self.breakdown(phase).elapsed

    def overlapped_elapsed(self, phase: Phase) -> float:
        """Phase time under an idealised fully-overlapped send model.

        The paper (and :meth:`elapsed`) assumes the host sends local arrays
        *in sequence*, staying busy for every message.  A machine with p
        independent DMA channels could instead overlap all sends: the
        distribution then ends when the host's own ops, the single longest
        message, and the slowest receiving processor are all done.  Used by
        the sequential-vs-overlapped ablation bench (DESIGN.md §5); a lower
        bound on any real pipelining.
        """
        host_ops = 0.0
        longest_message = 0.0
        proc_times: dict[int, float] = {}
        for e in self.phase_events(phase):
            if e.kind is EventKind.MESSAGE:
                longest_message = max(longest_message, e.time)
            elif e.actor == HOST:
                host_ops += e.time
            else:
                proc_times[e.actor] = proc_times.get(e.actor, 0.0) + e.time
        return host_ops + longest_message + max(proc_times.values(), default=0.0)

    def total_elapsed(self, phases: Iterable[Phase] = Phase) -> float:
        return sum(self.elapsed(ph) for ph in phases)

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{ph.value}={self.elapsed(ph):.3f}ms"
            for ph in Phase
            if self.phase_events(ph)
        )
        return f"TraceLog({len(self.events)} events; {parts})"
