"""The simulated distributed-memory multicomputer.

This is the repo's substitute for the paper's IBM SP2 (see DESIGN.md §2):
a host node that owns the global sparse array, ``p`` share-nothing
processors, an interconnect topology, and a :class:`~repro.machine.
cost_model.CostModel` through which *every* action is charged.  The
distribution schemes in :mod:`repro.core` run on this machine; the phase
times it reports are what the benchmark harness prints next to the paper's
Tables 3–5.

Accounting contract (matches Section 4 of the paper):

* messages are sent **in sequence** by the host ("local sparse arrays ...
  are sent to processors in sequence") — each costs
  ``T_Startup + m·T_Data·hops`` and the host is busy for all of them;
* host-side element operations (compressing the global array, packing
  buffers) are charged to the host serially;
* processor-side operations (unpacking, decoding, local compression) run in
  parallel across processors — a phase ends when the slowest finishes.

The machine *really executes* the data movement: payloads are numpy arrays
physically handed to processor mailboxes, so correctness tests can assert
what every processor ends up holding, and all charged quantities are
derived from the actual buffers built — never from the closed-form
formulas being validated.

Reliable delivery (fault mode)
------------------------------
Attaching a :class:`~repro.faults.injector.FaultInjector` switches every
send onto an ack/retry/timeout protocol (DESIGN.md §"Fault model"):

* each attempt — original or resend — is charged the full
  ``T_Startup + m·T_Data·hops`` message cost to the sender's timeline;
* a failed attempt (drop, checksum-detected corruption, crashed receiver)
  additionally charges the retry policy's exponential-backoff timeout as a
  ``RETRY`` event and is recorded as a ``FAULT`` event;
* delivered frames carry a sequence number (duplicate suppression) and a
  CRC-32 checksum of their wire image; duplicates are discarded at the
  receiver, reordered frames are inserted out of order in the mailbox;
* failures per message are capped at ``retry.max_retries``, after which
  delivery is forced — fault plans are eventually-delivered by contract,
  so the final machine state always equals the fault-free run's.

With ``faults=None`` (the default) none of this code runs: the trace and
all charged costs are byte-identical to the fault-free simulator.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any

from .cost_model import CostModel, sp2_cost_model
from .membership import DeadRankError, Membership
from .processor import Message, Processor
from .topology import HOST, SwitchTopology, Topology
from .trace import Event, EventKind, Phase, TraceLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector
    from ..obs.spans import Observability

__all__ = ["Machine", "HOST", "DeadRankError"]


class Machine:
    """A host plus ``p`` processors with explicit cost accounting.

    Parameters
    ----------
    n_procs:
        Number of compute processors (the paper's ``p``).
    cost:
        The machine cost model; defaults to the SP2 calibration.
    topology:
        Interconnect; defaults to the SP2-like single-hop switch.
    proc_speeds:
        Optional per-processor speed factors (ops complete ``speed×``
        faster).  Defaults to a homogeneous machine — the paper's setting;
        heterogeneous speeds back the speed-aware-partitioning ablation.
    faults:
        Optional :class:`~repro.faults.injector.FaultInjector`.  When
        attached, all sends go through the reliable-delivery protocol
        (see module docstring); when ``None`` the machine is the exact
        fault-free simulator.
    backend:
        Kernel backend name (``"python"`` | ``"numpy"``) the schemes and
        apps run their hot paths on while driving this machine; ``None``
        (default) inherits the process-wide default (numpy).  Backend
        choice never changes charged costs or wire bytes — only
        wall-clock speed (the differential suite's contract).
    executor:
        Executor name (``"sim"`` | ``"process"``) rank tasks run on;
        ``None`` (default) resolves the executor layer's current default
        (``REPRO_EXECUTOR``, else ``sim``) when the first rank pool is
        created.  Like the kernel backend, executor
        choice never changes charged costs or wire bytes — only where
        the receiver-side arithmetic physically runs (DESIGN.md
        §"Execution tiers").
    obs:
        Optional :class:`~repro.obs.spans.Observability` recorder.  When
        given (and enabled) it is bound to this machine's trace and reads
        its spans/metrics off it; when ``None`` the shared inert
        :data:`~repro.obs.spans.NULL_OBS` is installed and every
        instrumentation site short-circuits — the golden traces pin that
        this costs nothing and changes nothing.  A recorder covers one
        run: :meth:`reset` puts ``NULL_OBS`` back.
    """

    def __init__(
        self,
        n_procs: int,
        *,
        cost: CostModel | None = None,
        topology: Topology | None = None,
        proc_speeds: list[float] | None = None,
        faults: "FaultInjector | None" = None,
        backend: str | None = None,
        executor: str | None = None,
        obs: "Observability | None" = None,
    ) -> None:
        if n_procs <= 0:
            raise ValueError(f"n_procs must be positive, got {n_procs}")
        if backend is not None:
            from ..kernels import get_backend

            get_backend(backend)  # validate eagerly: fail at construction
        if executor is not None:
            from ..exec import get_executor

            get_executor(executor)  # validate eagerly: fail at construction
        self.backend = backend
        self.executor = executor
        #: lazily-created executor session (``_executor_session``)
        self._exec_session: Any = None
        self.n_procs = n_procs
        self.cost = cost if cost is not None else sp2_cost_model()
        if proc_speeds is None:
            self.proc_speeds = [1.0] * n_procs
        else:
            if len(proc_speeds) != n_procs:
                raise ValueError(
                    f"need {n_procs} processor speeds, got {len(proc_speeds)}"
                )
            if any(s <= 0 for s in proc_speeds):
                raise ValueError("processor speeds must be positive")
            self.proc_speeds = [float(s) for s in proc_speeds]
        self.topology = topology if topology is not None else SwitchTopology(n_procs)
        if self.topology.n_procs != n_procs:
            raise ValueError(
                f"topology is sized for {self.topology.n_procs} processors, "
                f"machine has {n_procs}"
            )
        self.procs = [Processor(r) for r in range(n_procs)]
        #: the host's view of which ranks are alive (fail-stop detection);
        #: full membership forever on machines without fail-stop faults
        self.membership = Membership(n_procs)
        #: the host's own memory (the global array lives here)
        self.host_memory: dict[str, Any] = {}
        #: messages sent back to the host (gather traffic), arrival order
        self.host_mailbox: list[Message] = []
        self.trace = TraceLog()
        self.faults = faults
        #: sequence numbers the host has accepted (duplicate suppression)
        self._host_seen_seqs: set[int] = set()
        if self.faults is not None:
            self.faults.bind(n_procs)
        if obs is None:
            from ..obs.spans import NULL_OBS

            obs = NULL_OBS
        #: the machine's observability recorder (inert NULL_OBS by default)
        self.obs = obs
        self.obs.attach(self)

    # ------------------------------------------------------------------
    # cost charging
    # ------------------------------------------------------------------
    def charge_host_ops(self, n_ops: int, phase: Phase, label: str = "") -> float:
        """Charge ``n_ops`` elementary operations to the host. Returns ms."""
        t = self.cost.ops_time(n_ops)
        self.trace.record(
            Event(phase, EventKind.OPS, HOST, t, quantity=int(n_ops), label=label)
        )
        return t

    def charge_proc_ops(
        self, rank: int, n_ops: int, phase: Phase, label: str = ""
    ) -> float:
        """Charge ``n_ops`` elementary operations to processor ``rank``.

        A processor with speed ``s`` takes ``1/s`` of the nominal
        ``T_Operation`` per op — the heterogeneous-cluster extension
        (uniform machines keep all speeds at 1, the paper's setting).
        In fault mode an injected per-processor slowdown multiplies the
        time by its (≥ 1) factor.
        """
        self._check_rank(rank)
        self._check_not_failed(rank)
        t = self.cost.ops_time(n_ops) / self.proc_speeds[rank]
        if self.faults is not None:
            t *= self.faults.slowdown_factor(rank)
        self.trace.record(
            Event(phase, EventKind.OPS, rank, t, quantity=int(n_ops), label=label)
        )
        return t

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    def send(
        self,
        dst: int,
        payload: Any,
        n_elements: int,
        phase: Phase,
        *,
        src: int = HOST,
        tag: str = "",
    ) -> float:
        """Transmit ``payload`` (``n_elements`` array elements) to ``dst``.

        Charged to the *sender's* timeline (sequential sends — the paper's
        model).  The payload object itself is handed over by reference;
        share-nothing discipline is the scheme author's responsibility and
        is checked by the test suite's aliasing tests.

        In fault mode the send goes through the reliable-delivery
        protocol; the returned time then covers all attempts plus backoff
        waits.
        """
        self._check_rank(dst)
        if n_elements < 0:
            raise ValueError(f"n_elements must be non-negative, got {n_elements}")
        hops = max(self.topology.hops(src, dst), 1)
        if self.faults is not None:
            if src != HOST:
                self._check_not_failed(src)  # dead nodes send nothing
            if src == dst:
                # self-send: the frame never touches the interconnect, so
                # there is nothing for the injector to drop, corrupt,
                # duplicate or reorder.  Charged and delivered exactly
                # like the fault-free path (p=1 edge case; see
                # tests/faults/test_edge_cases.py).
                t = self.cost.message_time(n_elements, hops=hops)
                self.trace.record(
                    Event(
                        phase,
                        EventKind.MESSAGE,
                        src,
                        t,
                        quantity=int(n_elements),
                        label=tag,
                        src=src,
                        dst=dst,
                    )
                )
                self.procs[dst].deliver(
                    Message(
                        src=src, dst=dst, tag=tag,
                        payload=payload, n_elements=n_elements,
                    )
                )
                return t
            if not self.membership.is_alive(dst):
                # the host already paid the detection timeouts for this
                # rank; addressing it again is a programming error in the
                # recovery layer, surfaced for free.
                raise DeadRankError(dst, detected=True)
            return self._reliable_transmit(
                src, dst, payload, n_elements, phase, tag, hops, actor=src
            )
        t = self.cost.message_time(n_elements, hops=hops)
        self.trace.record(
            Event(
                phase,
                EventKind.MESSAGE,
                src,
                t,
                quantity=int(n_elements),
                label=tag,
                src=src,
                dst=dst,
            )
        )
        self.procs[dst].deliver(
            Message(src=src, dst=dst, tag=tag, payload=payload, n_elements=n_elements)
        )
        return t

    def send_to_host(
        self,
        src: int,
        payload: Any,
        n_elements: int,
        phase: Phase,
        *,
        tag: str = "",
    ) -> float:
        """Transmit from a processor back to the host (gather traffic).

        The host receives messages serially, so the time is charged to the
        host's timeline — consistent with the sequential-send model.
        """
        self._check_rank(src)
        if n_elements < 0:
            raise ValueError(f"n_elements must be non-negative, got {n_elements}")
        hops = max(self.topology.hops(src, HOST), 1)
        if self.faults is not None:
            self._check_not_failed(src)  # dead nodes send nothing
            return self._reliable_transmit(
                src, HOST, payload, n_elements, phase, tag, hops, actor=HOST
            )
        t = self.cost.message_time(n_elements, hops=hops)
        self.trace.record(
            Event(
                phase,
                EventKind.MESSAGE,
                HOST,
                t,
                quantity=int(n_elements),
                label=tag,
                src=src,
                dst=HOST,
            )
        )
        self.host_mailbox.append(
            Message(src=src, dst=HOST, tag=tag, payload=payload, n_elements=n_elements)
        )
        return t

    # ------------------------------------------------------------------
    # reliable delivery (fault mode only)
    # ------------------------------------------------------------------
    def _deliver(self, msg: Message, insert_at: int | None = None) -> bool:
        """Hand a frame to its destination mailbox; False = duplicate."""
        if msg.dst == HOST:
            if msg.seq >= 0 and msg.seq in self._host_seen_seqs:
                return False
            if msg.seq >= 0:
                self._host_seen_seqs.add(msg.seq)
            if insert_at is None:
                self.host_mailbox.append(msg)
            else:
                self.host_mailbox.insert(insert_at, msg)
            return True
        return self.procs[msg.dst].deliver(msg, insert_at=insert_at)

    def _mailbox_len(self, dst: int) -> int:
        return len(self.host_mailbox if dst == HOST else self.procs[dst].mailbox)

    def _reliable_transmit(
        self,
        src: int,
        dst: int,
        payload: Any,
        n_elements: int,
        phase: Phase,
        tag: str,
        hops: int,
        *,
        actor: int,
    ) -> float:
        """Send with ack/retry/timeout semantics (see module docstring).

        ``actor`` is the rank whose timeline advances — the sender for
        host→processor traffic, the host for gather traffic (it receives
        serially), matching the fault-free accounting.  Returns the total
        time charged: every attempt costs the full message time, every
        failure adds its exponential-backoff timeout.

        When observability is enabled the whole ack/retry/backoff cycle
        is wrapped in one ``machine.reliable_send`` span (never entered
        on the golden paths — fault-free sends bypass this method).
        """
        if not self.obs.enabled:
            return self._reliable_attempts(
                src, dst, payload, n_elements, phase, tag, hops, actor=actor
            )
        from ..obs.spans import actor_label

        with self.obs.span(
            "machine.reliable_send",
            phase=phase.value,
            src=actor_label(src),
            dst=actor_label(dst),
            tag=tag,
        ):
            return self._reliable_attempts(
                src, dst, payload, n_elements, phase, tag, hops, actor=actor
            )

    def _reliable_attempts(
        self,
        src: int,
        dst: int,
        payload: Any,
        n_elements: int,
        phase: Phase,
        tag: str,
        hops: int,
        *,
        actor: int,
    ) -> float:
        """The attempt loop behind :meth:`_reliable_transmit`."""
        from ..faults.checksum import corrupt_payload, payload_checksum
        from ..faults.injector import Attempt

        inj = self.faults
        assert inj is not None
        seq = inj.next_seq()
        cksum = payload_checksum(payload)
        corruptible = cksum is not None and n_elements > 0
        policy = inj.spec.retry
        total = 0.0
        attempt = 0
        missed_acks = 0   # consecutive attempts swallowed by a dead rank
        t_detect = 0.0    # time charged for those missed-ack attempts
        while True:
            attempt += 1
            if dst != HOST and inj.rank_failed(dst):
                # Fail-stop: the destination is permanently dead.  The
                # frame goes onto the wire (full message cost), no ack
                # ever comes back (backoff timeout), and — unlike every
                # transient fault — delivery is never forced.  After
                # ``detect_after`` missed acks the host declares the rank
                # dead and the failure surfaces as DeadRankError.
                t = self.cost.message_time(n_elements, hops=hops)
                self.trace.record(
                    Event(
                        phase, EventKind.MESSAGE, actor, t,
                        quantity=int(n_elements), label=tag, src=src, dst=dst,
                    )
                )
                backoff = policy.backoff_ms(attempt)
                self.trace.record(
                    Event(
                        phase, EventKind.FAULT, actor, 0.0,
                        quantity=int(n_elements),
                        label=Attempt.FAILSTOP.value, src=src, dst=dst,
                    )
                )
                self.trace.record(
                    Event(
                        phase, EventKind.RETRY, actor, backoff,
                        quantity=attempt, label=tag, src=src, dst=dst,
                    )
                )
                total += t + backoff
                t_detect += t + backoff
                missed_acks += 1
                inj.stats.count(phase, "attempts")
                inj.stats.count(phase, "failstop_drops")
                inj.stats.count(phase, "retries")
                if missed_acks >= inj.spec.fail_stop.detect_after:
                    self._declare_dead(
                        dst, phase, missed_acks=missed_acks, time_ms=t_detect
                    )
                    raise DeadRankError(
                        dst,
                        detected=True,
                        missed_acks=missed_acks,
                        time_charged=total,
                    )
                continue
            t = self.cost.message_time(n_elements, hops=hops)
            self.trace.record(
                Event(
                    phase,
                    EventKind.MESSAGE,
                    actor,
                    t,
                    quantity=int(n_elements),
                    label=tag,
                    src=src,
                    dst=dst,
                )
            )
            total += t
            inj.stats.count(phase, "attempts")
            forced = attempt > policy.max_retries
            outcome = (
                Attempt.DELIVER
                if forced
                else inj.attempt_outcome(dst, corruptible=corruptible)
            )
            if outcome is Attempt.CORRUPT:
                # the frame physically arrives bit-flipped; the receiving
                # NIC recomputes the CRC, sees the mismatch and NACKs.
                damaged = corrupt_payload(payload, inj.rng)
                if damaged is None or payload_checksum(damaged) == cksum:
                    outcome = Attempt.DELIVER  # nothing corruptible after all
                else:
                    inj.stats.count(phase, "corruptions")
            if outcome is Attempt.DROP:
                inj.stats.count(phase, "drops")
            elif outcome is Attempt.CRASH:
                inj.stats.count(phase, "crash_drops")
            if outcome is not Attempt.DELIVER:
                self.trace.record(
                    Event(
                        phase,
                        EventKind.FAULT,
                        actor,
                        0.0,
                        quantity=int(n_elements),
                        label=outcome.value,
                        src=src,
                        dst=dst,
                    )
                )
                backoff = policy.backoff_ms(attempt)
                self.trace.record(
                    Event(
                        phase,
                        EventKind.RETRY,
                        actor,
                        backoff,
                        quantity=attempt,
                        label=tag,
                        src=src,
                        dst=dst,
                    )
                )
                total += backoff
                inj.stats.count(phase, "retries")
                continue
            if forced:
                inj.stats.count(phase, "forced")
            msg = Message(
                src=src,
                dst=dst,
                tag=tag,
                payload=payload,
                n_elements=n_elements,
                seq=seq,
                checksum=cksum,
            )
            insert_at = inj.reorder_insert(self._mailbox_len(dst))
            if insert_at is not None:
                inj.stats.count(phase, "reorders")
                self.trace.record(
                    Event(
                        phase,
                        EventKind.FAULT,
                        actor,
                        0.0,
                        quantity=int(n_elements),
                        label="reorder",
                        src=src,
                        dst=dst,
                    )
                )
            self._deliver(msg, insert_at)
            if dst != HOST:
                # a doomed rank counts accepted frames towards its
                # fail-stop budget; once it hits after_accepts it is dead
                # for all subsequent traffic (this frame dies with it).
                inj.record_accept(dst)
            # the network may duplicate the delivered frame; the copy
            # occupies the wire again and is discarded at the receiver.
            if inj.should_duplicate():
                t_dup = self.cost.message_time(n_elements, hops=hops)
                self.trace.record(
                    Event(
                        phase,
                        EventKind.MESSAGE,
                        actor,
                        t_dup,
                        quantity=int(n_elements),
                        label=tag,
                        src=src,
                        dst=dst,
                    )
                )
                total += t_dup
                inj.stats.count(phase, "attempts")
                accepted = self._deliver(msg, None)
                if not accepted:
                    inj.stats.count(phase, "duplicates")
                    self.trace.record(
                        Event(
                            phase,
                            EventKind.FAULT,
                            actor,
                            0.0,
                            quantity=int(n_elements),
                            label="duplicate",
                            src=src,
                            dst=dst,
                        )
                    )
            return total

    def receive(
        self, rank: int, tag: str | None = None, *, phase: Phase | None = None
    ) -> Message:
        """Pop processor ``rank``'s oldest message, verifying its checksum.

        Fault-free machines simply forward to the processor's mailbox —
        no extra events, no behaviour change.  In fault mode the receiver
        additionally verifies the frame's CRC-32 against its wire image
        (one scan op per element, charged to ``phase`` when given) and
        raises :class:`~repro.faults.checksum.CorruptFrameError` on a
        mismatch — which the reliable-delivery protocol guarantees never
        happens unless someone mutated a delivered payload.
        """
        self._check_rank(rank)
        self._check_not_failed(rank)
        msg = self.procs[rank].receive(tag)
        if self.faults is not None and msg.checksum is not None:
            from ..faults.checksum import CorruptFrameError, payload_checksum

            if phase is not None:
                self.charge_proc_ops(
                    rank, msg.n_elements, phase, label="checksum-verify"
                )
            if payload_checksum(msg.payload) != msg.checksum:
                raise CorruptFrameError(
                    f"rank {rank}: frame seq={msg.seq} tag={msg.tag!r} failed "
                    "checksum verification after delivery"
                )
        return msg

    def _pop_frame(self, rank: int, tag: str | None = None) -> Message:
        """Pop ``rank``'s oldest message *without* checksum verification.

        The rank-pool half of :meth:`receive`: the pool wraps the popped
        message into a wire frame and the executor's task performs the
        verification (and its charge) receiver-side, so the combined
        behaviour — guards, charge, error text — matches :meth:`receive`
        exactly.  Scheme code uses :meth:`receive` or a pool, never this.
        """
        self._check_rank(rank)
        self._check_not_failed(rank)
        return self.procs[rank].receive(tag)

    def host_receive(self, tag: str | None = None) -> Message:
        """Pop the host's oldest message (optionally the oldest with ``tag``)."""
        for i, msg in enumerate(self.host_mailbox):
            if tag is None or msg.tag == tag:
                return self.host_mailbox.pop(i)
        raise LookupError(
            "host: no message" + (f" with tag {tag!r}" if tag else "")
        )

    # ------------------------------------------------------------------
    # fail-stop detection and membership (fault mode only)
    # ------------------------------------------------------------------
    def _check_not_failed(self, rank: int) -> None:
        """Simulator guard: code cannot run on / talk from a dead node.

        Raises :class:`DeadRankError` with ``detected`` reflecting whether
        the host has already paid for the knowledge.  No-op on fault-free
        machines and for live ranks.
        """
        if self.faults is not None and self.faults.rank_failed(rank):
            raise DeadRankError(
                rank, detected=not self.membership.is_alive(rank)
            )

    def _declare_dead(
        self, rank: int, phase: Phase, *, missed_acks: int, time_ms: float
    ) -> None:
        """Record a completed detection: epoch bump + trace event + wipe."""
        inj = self.faults
        if inj is not None:
            inj.stats.count(phase, "detections")
        self.membership.declare_dead(
            rank, phase=phase.value, missed_acks=missed_acks, time_ms=time_ms
        )
        self.trace.record(
            Event(
                phase, EventKind.FAULT, HOST, 0.0,
                quantity=missed_acks, label="fail-stop-detect",
                src=HOST, dst=rank,
            )
        )
        self.obs.record_detection(rank, missed_acks, time_ms)
        # the node is gone: everything it held or had queued dies with it
        self.procs[rank].reset()
        if self._exec_session is not None:
            self._exec_session.kill_rank(rank)

    def confirm_failure(self, rank: int, phase: Phase) -> float:
        """Heartbeat-probe a suspected-dead rank until the detect threshold.

        Used when death is learned receive-side (a simulator guard raised
        ``DeadRankError(detected=False)``): the host cannot act on
        knowledge it has not paid for, so it sends ``detect_after``
        zero-element heartbeat probes — each charged ``T_Startup·hops``
        plus the retry policy's backoff — and only then declares the rank
        dead.  Returns the total time charged (0.0 if already declared).
        """
        self._check_rank(rank)
        if not self.membership.is_alive(rank):
            return 0.0
        inj = self.faults
        if inj is None:
            raise ValueError("confirm_failure needs an attached fault injector")
        if not inj.rank_failed(rank):
            raise ValueError(f"rank {rank} is alive; nothing to confirm")
        fs = inj.spec.fail_stop
        policy = inj.spec.retry
        hops = max(self.topology.hops(HOST, rank), 1)
        total = 0.0
        with self.obs.span(
            "machine.confirm_failure", phase=phase.value, rank=str(rank)
        ):
            for attempt in range(1, fs.detect_after + 1):
                t = self.cost.message_time(0, hops=hops)
                self.trace.record(
                    Event(
                        phase, EventKind.MESSAGE, HOST, t,
                        quantity=0, label="heartbeat", src=HOST, dst=rank,
                    )
                )
                backoff = policy.backoff_ms(attempt)
                self.trace.record(
                    Event(
                        phase, EventKind.RETRY, HOST, backoff,
                        quantity=attempt, label="heartbeat", src=HOST, dst=rank,
                    )
                )
                total += t + backoff
                inj.stats.count(phase, "attempts")
                inj.stats.count(phase, "heartbeats")
                inj.stats.count(phase, "retries")
            self._declare_dead(
                rank, phase, missed_acks=fs.detect_after, time_ms=total
            )
        return total

    def purge_mailboxes(self, tag: str | None = None) -> int:
        """Drop undelivered frames from every mailbox (host included).

        Recovery bookkeeping: after a membership change, in-flight frames
        addressed under the old epoch are stale and must not be consumed
        by re-driven traffic.  Free of charge (the frames are simply never
        read).  Returns how many frames were discarded.
        """
        dropped = 0
        for proc in self.procs:
            if tag is None:
                dropped += len(proc.mailbox)
                proc.mailbox.clear()
            else:
                keep = [m for m in proc.mailbox if m.tag != tag]
                dropped += len(proc.mailbox) - len(keep)
                proc.mailbox[:] = keep
        if tag is None:
            dropped += len(self.host_mailbox)
            self.host_mailbox.clear()
        else:
            keep = [m for m in self.host_mailbox if m.tag != tag]
            dropped += len(self.host_mailbox) - len(keep)
            self.host_mailbox[:] = keep
        return dropped

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def kernel_context(self):
        """Dynamic scope installing this machine's kernel backend.

        Schemes and distributed apps wrap their bodies in
        ``with machine.kernel_context():`` so every hot-path kernel
        (pack/encode/decode/convert/traverse) dispatches to the backend
        the machine was constructed with.  A machine without an explicit
        ``backend`` yields a no-op scope (process default applies).

        With observability enabled the scope additionally counts every
        kernel dispatch (``repro_kernel_calls_total{backend,kernel}``)
        via :func:`~repro.kernels.observe_kernel_calls`.
        """
        from ..kernels import use_backend

        if not self.obs.enabled:
            return use_backend(self.backend)
        return self._observed_kernel_context()

    @contextmanager
    def _observed_kernel_context(self):
        """Kernel scope + per-dispatch counting (obs-enabled runs only)."""
        from ..kernels import observe_kernel_calls, use_backend

        with use_backend(self.backend) as backend:
            with observe_kernel_calls(self.obs.record_kernel_call):
                yield backend

    def _executor_session(self):
        """This machine's executor session, created on first use.

        The executor name resolves like the kernel backend: an explicit
        ``executor=`` wins, otherwise the executor layer's current
        default (``REPRO_EXECUTOR``, else ``sim``) at the moment the
        first pool is created.
        """
        if self._exec_session is None:
            from ..exec import current_executor_name, get_executor

            name = (
                self.executor
                if self.executor is not None
                else current_executor_name()
            )
            self._exec_session = get_executor(name).create_session(self.n_procs)
            # a supervised session reports restarts/reaps through obs; the
            # hook is duck-typed so sim/bare sessions need no knowledge of it
            attach = getattr(self._exec_session, "attach_obs", None)
            if attach is not None and self.obs.enabled:
                attach(self.obs)
        return self._exec_session

    def rank_pool(self):
        """A fresh :class:`~repro.exec.pool.RankPool` over this machine.

        Scheme/app receiver loops submit their per-rank tasks through it
        and collect results in rank order; where the tasks physically run
        is the executor's business (DESIGN.md §"Execution tiers").
        """
        from ..exec import RankPool

        return RankPool(self, self._executor_session())

    def shutdown(self) -> None:
        """Tear down the executor session (idempotent, sim = no-op).

        Worker processes and wire segments die here; the machine itself
        stays usable — the next pool lazily builds a fresh session.
        """
        if self._exec_session is not None:
            self._exec_session.shutdown()
            self._exec_session = None

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_procs:
            raise ValueError(f"rank {rank} out of range for p={self.n_procs}")

    def processor(self, rank: int) -> Processor:
        self._check_rank(rank)
        self._check_not_failed(rank)
        return self.procs[rank]

    def reset(self) -> None:
        """Clear all processor memories and mailboxes; start a new trace.

        The old :class:`TraceLog` is replaced, not cleared, so a recorder
        bound to the finished run keeps that run's events; the machine
        goes back to the inert ``NULL_OBS``.  An attached fault injector
        is rewound to its initial seeded state, so ``run → reset → run``
        replays the identical fault sequence.
        """
        from ..obs.spans import NULL_OBS

        for p in self.procs:
            p.reset()
        self.host_memory.clear()
        self.host_mailbox.clear()
        self._host_seen_seqs.clear()
        self.trace = TraceLog()
        self.obs = NULL_OBS
        self.membership.reset()
        if self.faults is not None:
            self.faults.reset()
        if self._exec_session is not None:
            self._exec_session.reset()

    def fault_summary(self) -> dict[str, dict[str, int]] | None:
        """Per-phase fault counters, or ``None`` on a fault-free machine."""
        if self.faults is None:
            return None
        return self.faults.stats.summary()

    def supervisor_summary(self):
        """The executor session's real-fault record, or ``None``.

        Non-``None`` only when the live session is supervised (process
        executor under a :class:`~repro.exec.SuperviseSpec`); duck-typed
        so sim/bare sessions stay supervision-agnostic.
        """
        if self._exec_session is None:
            return None
        summarise = getattr(self._exec_session, "supervisor_summary", None)
        if summarise is None:
            return None
        return summarise()

    # convenience accessors mirroring the paper's reported quantities -----
    @property
    def t_distribution(self) -> float:
        """``T_Distribution`` so far (ms)."""
        return self.trace.elapsed(Phase.DISTRIBUTION)

    @property
    def t_compression(self) -> float:
        """``T_Compression`` so far (ms)."""
        return self.trace.elapsed(Phase.COMPRESSION)

    def __repr__(self) -> str:
        return (
            f"Machine(p={self.n_procs}, topology={self.topology.name}, "
            f"cost={self.cost})"
        )
