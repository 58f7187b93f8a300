"""The fault-mode wire: the reliable-delivery protocol in one place.

A :class:`~repro.machine.machine.Machine` sends every frame through a
link.  Its default :class:`~repro.machine.machine.PerfectLink` is the
paper's Section 4 interconnect: charge ``T_Startup + m·T_Data·hops``,
deliver.  Attaching a :class:`~repro.faults.injector.FaultInjector`
swaps in a :class:`ReliableLink`, which runs the ack/retry/timeout
protocol (DESIGN.md §"Reliable-delivery protocol") against it:

* each attempt, original or resend, is charged the full message cost to
  the actor's timeline;
* a failed attempt (drop, checksum-detected corruption, transiently
  crashed receiver) is recorded as a ``FAULT`` event and charges the
  retry policy's exponential-backoff timeout as a ``RETRY`` event;
* delivered frames carry a sequence number and the CRC-32 of their wire
  image; receivers discard duplicates by sequence number, and a
  reordered frame is inserted ahead of queued traffic;
* failures per message are capped at ``retry.max_retries``, after which
  delivery is forced, so the final machine state equals the fault-free
  run's;
* a permanently dead destination never acks: after ``detect_after``
  missed acks the host declares it dead and the send raises
  :class:`~repro.machine.membership.DeadRankError`.

The injector answers each question with one draw, in a fixed order per
attempt (outcome, corruption bits, reorder, duplicate); the golden
traces pin that order.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any

from ..machine.machine import PerfectLink
from ..machine.membership import DeadRankError
from ..machine.processor import Message
from ..machine.topology import HOST
from ..machine.trace import Event, EventKind, Phase
from .checksum import corrupt_payload, payload_checksum, verify_frame
from .injector import Attempt, FaultInjector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.machine import Machine

__all__ = ["ReliableLink"]

#: the fault counter each failed transient attempt bumps
_FAILED = {
    Attempt.DROP: "drops",
    Attempt.CORRUPT: "corruptions",
    Attempt.CRASH: "crash_drops",
}


class ReliableLink(PerfectLink):
    """A machine's wire under a fault plan (see the module docstring).

    Ranks are physical throughout, like the injector, the membership and
    :class:`DeadRankError`.
    """

    def __init__(self, machine: "Machine", injector: FaultInjector) -> None:
        super().__init__(machine)
        self.injector = injector
        injector.bind(len(machine.procs))
        #: sequence numbers the host has accepted (duplicate suppression)
        self._host_seqs: set[int] = set()

    # ------------------------------------------------------------------
    # the link surface the machine calls
    # ------------------------------------------------------------------
    def check(self, rank: int) -> None:
        """Simulator guard: code cannot run on, or talk from, a dead node.

        ``detected`` tells whether the host has already paid to learn it.
        """
        if self.injector.rank_failed(rank):
            raise DeadRankError(
                rank, detected=not self.machine.membership.is_alive(rank)
            )

    def slowdown(self, rank: int) -> float:
        return self.injector.slowdown_factor(rank)

    def verify(self, msg: Message, phase: Phase | None) -> None:
        verify_frame(msg, phase, partial(self.machine._charge_proc, msg.dst))

    def reset(self) -> None:
        """Rewind the injector: ``run → reset → run`` replays the faults."""
        self.injector.reset()
        self._host_seqs.clear()

    def summary(self) -> dict[str, dict[str, int]]:
        return self.injector.stats.summary()

    def send(
        self, src: int, dst: int, payload: Any, n_elements: int, phase: Phase,
        tag: str, hops: int, *, actor: int,
    ) -> float:
        """Send with ack/retry/timeout semantics; the total time charged.

        The attempt loop (or the detection of a dead destination) runs in
        one ``machine.reliable_send`` span.
        """
        if src != HOST:
            self.check(src)  # dead nodes send nothing
        if src == dst:
            # a self-send never touches the interconnect (p=1): nothing
            # to drop, corrupt, duplicate or reorder
            return super().send(
                src, dst, payload, n_elements, phase, tag, hops, actor=actor
            )
        m = self.machine
        if dst != HOST and not m.membership.is_alive(dst):
            # the host already paid the detection timeouts for this rank;
            # addressing it again is a recovery-layer bug, surfaced free
            raise DeadRankError(dst, detected=True)
        from ..obs.spans import actor_label

        inj = self.injector
        stats = inj.stats
        seq = inj.next_seq()  # drawn by every transmission, lost or not
        with m.obs.span(
            "machine.reliable_send", phase=phase.value,
            src=actor_label(src), dst=actor_label(dst), tag=tag,
        ):
            if dst != HOST and inj.rank_failed(dst):
                # Fail-stop: every attempt goes onto the wire and no ack
                # ever comes back.  Unlike a transient fault, delivery is
                # never forced: the death surfaces once it is detected.
                total = self._detect(src, dst, n_elements, phase, tag, hops, actor)
                raise DeadRankError(
                    dst, detected=True,
                    missed_acks=inj.spec.fail_stop.detect_after,
                    time_charged=total,
                )
            cksum = payload_checksum(payload)
            corruptible = cksum is not None and n_elements > 0
            total = 0.0
            attempt = 0
            while True:
                attempt += 1
                total += m._charge_message(
                    phase, actor, src, dst, n_elements, tag, hops
                )
                stats.count(phase, "attempts")
                forced = attempt > inj.spec.retry.max_retries
                if forced:
                    break
                outcome = inj.attempt_outcome(dst, corruptible=corruptible)
                if outcome is Attempt.CORRUPT:
                    # the frame arrives bit-flipped; the receiving NIC
                    # recomputes the CRC, sees the mismatch and NACKs
                    damaged = corrupt_payload(payload, inj.rng)
                    if damaged is None or payload_checksum(damaged) == cksum:
                        outcome = Attempt.DELIVER  # nothing corruptible after all
                if outcome is Attempt.DELIVER:
                    break
                stats.count(phase, _FAILED[outcome])
                self._record_fault(phase, actor, src, dst, n_elements, outcome.value)
                total += self._charge_retry(phase, actor, src, dst, attempt, tag)
                stats.count(phase, "retries")
            if forced:
                stats.count(phase, "forced")
            msg = Message(
                src=src, dst=dst, tag=tag, payload=payload,
                n_elements=n_elements, seq=seq, checksum=cksum,
            )
            box = m.host_mailbox if dst == HOST else m.procs[dst].mailbox
            insert_at = inj.reorder_insert(len(box))
            if insert_at is not None:
                stats.count(phase, "reorders")
                self._record_fault(phase, actor, src, dst, n_elements, "reorder")
            self._deliver(msg, insert_at)
            if dst != HOST:
                # a doomed rank counts accepted frames towards its
                # fail-stop budget; at after_accepts it is dead to all
                # later traffic
                inj.record_accept(dst)
            # the network may duplicate the delivered frame: the copy
            # occupies the wire again and is discarded at the receiver
            if inj.should_duplicate():
                total += m._charge_message(
                    phase, actor, src, dst, n_elements, tag, hops
                )
                stats.count(phase, "attempts")
                if not self._deliver(msg, None):
                    stats.count(phase, "duplicates")
                    self._record_fault(
                        phase, actor, src, dst, n_elements, "duplicate"
                    )
            return total

    def confirm_failure(self, rank: int, phase: Phase) -> float:
        """Heartbeat-probe a dead, undeclared ``rank`` until it is declared.

        ``detect_after`` zero-element probes, each charged
        ``T_Startup·hops`` plus the backoff; returns the time charged.
        """
        if not self.injector.rank_failed(rank):
            raise ValueError(f"rank {rank} is alive; nothing to confirm")
        m = self.machine
        hops = max(m.topology.hops(HOST, rank), 1)
        with m.obs.span(
            "machine.confirm_failure", phase=phase.value, rank=str(rank)
        ):
            return self._detect(
                HOST, rank, 0, phase, "heartbeat", hops, HOST, probe=True
            )

    # ------------------------------------------------------------------
    # the protocol's parts
    # ------------------------------------------------------------------
    def _deliver(self, msg: Message, insert_at: int | None) -> bool:
        """Hand a frame to its receiver; False when it is a duplicate."""
        if msg.dst != HOST:
            return self.machine.procs[msg.dst].deliver(msg, insert_at=insert_at)
        if msg.seq in self._host_seqs:
            return False
        self._host_seqs.add(msg.seq)
        box = self.machine.host_mailbox
        box.insert(len(box) if insert_at is None else insert_at, msg)
        return True

    def _detect(
        self, src: int, dst: int, n_elements: int, phase: Phase, tag: str,
        hops: int, actor: int, *, probe: bool = False,
    ) -> float:
        """Miss ``detect_after`` acks from dead ``dst``, then declare it dead.

        Each attempt costs its message time plus its backoff.  A heartbeat
        ``probe`` is expected to go unanswered; a lost data frame is also
        recorded as a ``fail-stop`` fault.  Returns the time charged.
        """
        m, inj = self.machine, self.injector
        missed = inj.spec.fail_stop.detect_after
        total = 0.0
        for attempt in range(1, missed + 1):
            t = m._charge_message(phase, actor, src, dst, n_elements, tag, hops)
            if not probe:
                self._record_fault(
                    phase, actor, src, dst, n_elements, Attempt.FAILSTOP.value
                )
            total += t + self._charge_retry(phase, actor, src, dst, attempt, tag)
            for counter in ("attempts", "heartbeats" if probe else "failstop_drops",
                            "retries"):
                inj.stats.count(phase, counter)
        inj.stats.count(phase, "detections")
        m.membership.declare_dead(
            dst, phase=phase.value, missed_acks=missed, time_ms=total
        )
        self._record_fault(phase, HOST, HOST, dst, missed, "fail-stop-detect")
        m.obs.record_detection(dst, missed, total)
        # the node is gone: everything it held or had queued dies with it
        m.procs[dst].reset()
        if m._exec_session is not None:
            m._exec_session.kill_rank(dst)
        return total

    def _record_fault(
        self, phase: Phase, actor: int, src: int, dst: int, quantity: int,
        label: str,
    ) -> None:
        """Record a zero-time ``FAULT`` event (drop, corrupt, detection…)."""
        self.machine.trace.record(
            Event(
                phase, EventKind.FAULT, actor, 0.0,
                quantity=int(quantity), label=label, src=src, dst=dst,
            )
        )

    def _charge_retry(
        self, phase: Phase, actor: int, src: int, dst: int, attempt: int,
        label: str,
    ) -> float:
        """Charge attempt ``attempt``'s backoff timeout as a ``RETRY`` event."""
        backoff = self.injector.spec.retry.backoff_ms(attempt)
        self.machine.trace.record(
            Event(
                phase, EventKind.RETRY, actor, backoff,
                quantity=attempt, label=label, src=src, dst=dst,
            )
        )
        return backoff
