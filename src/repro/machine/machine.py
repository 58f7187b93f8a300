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

The link
--------
Every frame crosses one link object.  The default :class:`PerfectLink`
is the paper's interconnect: a send is charged and delivered, nothing
fails, slows down or dies.  Attaching a
:class:`~repro.faults.injector.FaultInjector` swaps in
:class:`~repro.faults.link.ReliableLink`, which owns the whole fault-mode
wire: the ack/retry/backoff protocol, fail-stop detection, the dead-rank
guard, duplicate suppression and per-rank slowdowns (DESIGN.md
§"Reliable-delivery protocol").  The machine never tests for faults
itself, so a fault-free run's trace and charged costs are the paper's.

Rank map (recovery)
-------------------
Every rank argument goes through one rank map (:meth:`Machine.remap`),
so the recovery layer drives the same charged API the schemes use.  The
identity map is the default.  A dense survivor roster renumbers the live
ranks ``0..p'-1``; the original roster with ghost slots lets the host
stand in for dead ranks, charging their work to its serial timeline.
Trace events, the injector, membership, :class:`DeadRankError`, error
texts and the executor session always see physical ranks.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from .cost_model import CostModel, sp2_cost_model
from .membership import DeadRankError, Membership
from .processor import Message, Processor
from .topology import HOST, SwitchTopology, Topology
from .trace import Event, EventKind, Phase, TraceLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector
    from ..obs.spans import Observability

__all__ = ["Machine", "HOST", "DeadRankError", "PerfectLink"]


class PerfectLink:
    """The paper's interconnect: every frame arrives intact, once, in order.

    The machine calls its link for each send, each dead-rank guard, each
    processor op's slowdown, each receive's frame check, and at reset.
    Here a send is charged ``T_Startup + m·T_Data·hops`` to ``actor`` and
    delivered, and everything else is a no-op.  Ranks are physical.
    """

    def __init__(self, machine: "Machine") -> None:
        # a proxy, not a reference: the machine owns its link, and a
        # strong reference back would leave every dropped machine (and
        # the arrays its processors hold) to the cyclic collector
        self.machine: Machine = weakref.proxy(machine)

    def send(
        self, src: int, dst: int, payload: Any, n_elements: int, phase: Phase,
        tag: str, hops: int, *, actor: int,
    ) -> float:
        m = self.machine
        t = m._charge_message(phase, actor, src, dst, n_elements, tag, hops)
        msg = Message(src=src, dst=dst, tag=tag, payload=payload, n_elements=n_elements)
        if dst == HOST:
            m.host_mailbox.append(msg)
        else:
            m.procs[dst].deliver(msg)
        return t

    def check(self, rank: int) -> None:
        """Dead-rank guard: no rank dies on a perfect link."""

    def slowdown(self, rank: int) -> float:
        return 1.0

    def verify(self, msg: Message, phase: Phase | None) -> None:
        """Frames on a perfect link carry no checksum to verify."""

    def confirm_failure(self, rank: int, phase: Phase) -> float:
        raise ValueError("confirm_failure needs an attached fault injector")

    def reset(self) -> None:
        pass

    def summary(self) -> dict[str, dict[str, int]] | None:
        return None


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
        attached, every frame crosses a
        :class:`~repro.faults.link.ReliableLink` over it (see the module
        docstring); when ``None`` the link is a :class:`PerfectLink` and
        the machine is the exact fault-free simulator.
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
        #: ranks the rank arguments address (``p'`` under a survivor roster)
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
        #: the rank map (see :meth:`remap`): virtual -> physical rank of a
        #: dense survivor roster (None = identity), its inverse, and the
        #: host-held ghost processors standing in for dead ranks
        self._roster: list[int] | None = None
        self._virtual: dict[int, int] = {}
        self._ghosts: dict[int, Processor] = {}
        #: the host's view of which ranks are alive (fail-stop detection);
        #: full membership forever on machines without fail-stop faults
        self.membership = Membership(n_procs)
        #: the host's own memory (the global array lives here)
        self.host_memory: dict[str, Any] = {}
        #: messages sent back to the host (gather traffic), arrival order
        self.host_mailbox: list[Message] = []
        self.trace = TraceLog()
        self.faults = faults
        #: the wire every frame crosses (see the module docstring)
        self.link: PerfectLink
        if faults is None:
            self.link = PerfectLink(self)
        else:
            from ..faults.link import ReliableLink

            self.link = ReliableLink(self, faults)
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
        time by its (≥ 1) factor.  A ghost's work is the host's, serially.
        """
        if rank in self._ghosts:
            return self.charge_host_ops(n_ops, phase, label=f"ghost-{label}")
        rank = self.physical(rank)
        self.link.check(rank)
        return self._charge_proc(rank, n_ops, phase, label)

    def _charge_proc(self, rank: int, n_ops: int, phase: Phase, label: str) -> float:
        """:meth:`charge_proc_ops` on a checked physical ``rank``."""
        t = self.cost.ops_time(n_ops) / self.proc_speeds[rank]
        t *= self.link.slowdown(rank)
        self.trace.record(
            Event(phase, EventKind.OPS, rank, t, quantity=int(n_ops), label=label)
        )
        return t

    def _charge_message(
        self, phase: Phase, actor: int, src: int, dst: int, n_elements: int,
        label: str, hops: int,
    ) -> float:
        """Charge one message's ``T_Startup + m·T_Data·hops`` to ``actor``."""
        t = self.cost.message_time(n_elements, hops=hops)
        self.trace.record(
            Event(
                phase, EventKind.MESSAGE, actor, t,
                quantity=int(n_elements), label=label, src=src, dst=dst,
            )
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

        Under a fault plan the returned time covers every attempt and
        backoff wait of the reliable-delivery protocol.
        """
        if dst in self._ghosts:
            if src != HOST and src in self._ghosts:
                raise ValueError("ghost-to-ghost traffic is not modelled")
            # host-local buffer move into the ghost replica: one op/element
            t = self.charge_host_ops(
                n_elements, phase, label=f"ghost-send:{tag}" if tag else "ghost-send"
            )
            self._ghosts[dst].deliver(
                Message(
                    src=src, dst=dst, tag=tag, payload=payload, n_elements=n_elements
                )
            )
            return t
        dst = self.physical(dst)
        if src != HOST:
            src = self.physical(src)
        if n_elements < 0:
            raise ValueError(f"n_elements must be non-negative, got {n_elements}")
        hops = max(self.topology.hops(src, dst), 1)
        return self.link.send(
            src, dst, payload, n_elements, phase, tag, hops, actor=src
        )

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
        if src in self._ghosts:
            label = f"ghost-gather:{tag}" if tag else "ghost-gather"
            t = self.charge_host_ops(n_elements, phase, label=label)
            self.host_mailbox.append(
                Message(
                    src=src, dst=HOST, tag=tag, payload=payload, n_elements=n_elements
                )
            )
            return t
        src = self.physical(src)
        if n_elements < 0:
            raise ValueError(f"n_elements must be non-negative, got {n_elements}")
        hops = max(self.topology.hops(src, HOST), 1)
        return self.link.send(
            src, HOST, payload, n_elements, phase, tag, hops, actor=HOST
        )

    def receive(
        self, rank: int, tag: str | None = None, *, phase: Phase | None = None
    ) -> Message:
        """Pop processor ``rank``'s oldest message, verifying its checksum.

        The link checks the frame; a perfect link has nothing to check.
        Under a fault plan the receiver verifies the frame's CRC-32
        against its wire image (one scan op per element, charged to
        ``phase`` when given) and raises
        :class:`~repro.faults.checksum.CorruptFrameError` on a mismatch,
        which the reliable-delivery protocol guarantees never happens
        unless someone mutated a delivered payload.
        """
        msg = self._pop_frame(rank, tag)
        self.link.verify(msg, phase)
        return msg

    def _pop_frame(self, rank: int, tag: str | None = None) -> Message:
        """Pop ``rank``'s oldest message *without* checksum verification.

        The rank-pool half of :meth:`receive`: the pool ships the popped
        message to the rank task, which performs the verification (and
        its charge) receiver-side through the same
        :func:`~repro.faults.checksum.verify_frame`, so guards, charge and
        error text match :meth:`receive` exactly.  Scheme code uses
        :meth:`receive` or a pool, never this.
        """
        return self.processor(rank).receive(tag)

    def host_receive(self, tag: str | None = None) -> Message:
        """Pop the host's oldest message (optionally the oldest with ``tag``).

        Under a survivor roster the source comes back as its virtual rank.
        """
        for i, msg in enumerate(self.host_mailbox):
            if tag is None or msg.tag == tag:
                msg = self.host_mailbox.pop(i)
                virtual = self._virtual.get(msg.src)
                return msg if virtual is None else replace(msg, src=virtual)
        raise LookupError(
            "host: no message" + (f" with tag {tag!r}" if tag else "")
        )

    # ------------------------------------------------------------------
    # fail-stop detection and membership
    # ------------------------------------------------------------------
    def confirm_failure(self, rank: int, phase: Phase) -> float:
        """Heartbeat-probe a suspected-dead rank until the detect threshold.

        Used when death is learned receive-side (a simulator guard raised
        ``DeadRankError(detected=False)``): the host cannot act on
        knowledge it has not paid for, so it sends ``detect_after``
        zero-element heartbeat probes — each charged ``T_Startup·hops``
        plus the retry policy's backoff — and only then declares the rank
        dead.  Returns the total time charged (0.0 if already declared).
        ``rank`` is physical, like the membership and :class:`DeadRankError`.
        The probes are the link's: a perfect link has no dead rank to probe.
        """
        if not 0 <= rank < len(self.procs):
            raise ValueError(f"rank {rank} out of range for p={len(self.procs)}")
        if not self.membership.is_alive(rank):
            return 0.0
        return self.link.confirm_failure(rank, phase)

    def purge_mailboxes(self, tag: str | None = None) -> int:
        """Drop undelivered frames from every mailbox (host included).

        Recovery bookkeeping: after a membership change, in-flight frames
        addressed under the old epoch are stale and must not be consumed
        by re-driven traffic.  Free of charge (the frames are simply never
        read).  Returns how many frames were discarded.
        """
        dropped = 0
        for box in [*(proc.mailbox for proc in self.procs), self.host_mailbox]:
            keep = [] if tag is None else [m for m in box if m.tag != tag]
            dropped += len(box) - len(keep)
            box[:] = keep
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
            # sized by the physical roster, whatever the rank map says
            self._exec_session = get_executor(name).create_session(len(self.procs))
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

        Worker processes and their sockets die here; the machine itself
        stays usable — the next pool lazily builds a fresh session.
        """
        if self._exec_session is not None:
            self._exec_session.shutdown()
            self._exec_session = None

    # ------------------------------------------------------------------
    # the rank map
    # ------------------------------------------------------------------
    def remap(
        self, survivors: Sequence[int] | None = None, *, ghosts: Iterable[int] = ()
    ) -> None:
        """Choose the roster every rank argument of this machine addresses.

        ``remap()`` restores the identity map (as :meth:`reset` does).
        ``remap(survivors)`` presents those physical ranks as a dense
        roster: virtual rank ``r`` is physical ``survivors[r]`` and
        :attr:`n_procs` becomes ``p'``, so a scheme re-planned for ``p'``
        processors runs unchanged on the survivors.
        ``remap(ghosts=dead)`` keeps the original roster and stands a fresh
        host-held ghost :class:`Processor` in for each dead rank: a send to
        a ghost is a host-local move (one op per element, labelled
        ``ghost-send[:tag]``), a gather from it is labelled
        ``ghost-gather[:tag]``, its compute is charged to the host's serial
        timeline as ``ghost-…`` ops, its receives skip the checksum and its
        pool tasks run inline.  Afterwards the ghosts hold exactly what
        the dead processors would have held.
        """
        p = len(self.procs)
        roster = None if survivors is None else [int(r) for r in survivors]
        ghosts = sorted(ghosts)
        if roster is not None:
            if ghosts:
                raise ValueError("a roster has survivors or ghosts, not both")
            if not roster:
                raise ValueError("a survivor roster needs at least one rank")
            if len(set(roster)) != len(roster):
                raise ValueError(f"duplicate rank in survivor roster {roster}")
        for rank in (roster or []) + ghosts:
            if not 0 <= rank < p:
                raise ValueError(f"rank {rank} out of range for p={p}")
        for rank in ghosts:
            if self.membership.is_alive(rank):
                raise ValueError(f"rank {rank} is alive; it cannot be a ghost")
        self._roster = roster
        self._virtual = {} if roster is None else {r: v for v, r in enumerate(roster)}
        self._ghosts = {rank: Processor(rank) for rank in ghosts}
        self.n_procs = p if roster is None else len(roster)

    def physical(self, rank: int) -> int:
        """The physical rank behind ``rank`` under the current rank map."""
        if not 0 <= rank < self.n_procs:
            raise ValueError(f"rank {rank} out of range for p={self.n_procs}")
        return rank if self._roster is None else self._roster[rank]

    def is_ghost(self, rank: int) -> bool:
        """True when ``rank`` is a host-held ghost slot (see :meth:`remap`)."""
        return rank in self._ghosts

    def processor(self, rank: int) -> Processor:
        if rank in self._ghosts:
            return self._ghosts[rank]
        rank = self.physical(rank)
        self.link.check(rank)
        return self.procs[rank]

    def reset(self) -> None:
        """Clear all processor memories and mailboxes; start a new trace.

        The rank map goes back to the identity.

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
        self.trace = TraceLog()
        self.obs = NULL_OBS
        self.membership.reset()
        self.remap()
        self.link.reset()
        if self._exec_session is not None:
            self._exec_session.reset()

    def fault_summary(self) -> dict[str, dict[str, int]] | None:
        """Per-phase fault counters, or ``None`` on a fault-free machine."""
        return self.link.summary()

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
