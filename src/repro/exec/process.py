"""The rank-per-process executor: one OS process per simulated rank.

Topology: the coordinator (the process driving the
:class:`~repro.machine.machine.Machine`) owns the simulated clock, the
trace ledger, the fault injector and every mailbox; each rank gets one
long-lived daemon worker holding one end of a socket pair, over which
:mod:`repro.exec.wire` frames travel.  Workers execute
registered rank tasks (:mod:`repro.exec.tasks`) — pure receiver-side
arithmetic — and return values plus deferred cost charges; the
coordinator replays those charges deterministically in rank order, which
is why the trace is byte-identical to the inline simulator no matter how
execution interleaves in wall-clock time.

What runs in the workers: the receiver-side kernels (compress / unpack /
decode / SpMV partials).  What stays coordinated: sends, the fault
injector's RNG, retries/acks, membership, all cost accounting.  The
tier exists for fault isolation, not speed: rank tasks are too small a
share of a run for real processes to beat the inline simulator.  See
DESIGN.md §"Execution tiers".

One task in flight per worker
-----------------------------
A worker runs one task at a time and replies in order, so before a new
dispatch the session reads (and discards) any reply nobody collected —
an aborted run may abandon one.  Without that, a worker still writing a
large abandoned reply and a host writing a large envelope would block
each other forever.

Worker lifecycle
----------------
Workers spawn lazily on first dispatch (``fork`` start method where the
platform has it — ``REPRO_EXEC_START_METHOD`` overrides), are restarted
transparently after :meth:`ProcessSession.kill_rank` (fail-stop death —
the simulated rank's worker is terminated along with its state, exactly
as the simulator wipes the dead rank's processor), and are reaped by
:meth:`ProcessSession.shutdown`, a ``weakref.finalize``, or the test
suite's :func:`reap_all_sessions` safety net.

Store cache
-----------
Task kwargs may carry :class:`~repro.exec.tasks.Ref` markers naming
objects in the rank's host-side processor memory (the source of truth).
The session keeps a ``(rank, key) → version`` table mirroring
:class:`~repro.machine.processor.Processor` store versions and pushes a
value to its worker only when the worker's copy is stale — iterative
apps (repeated SpMV on the same locals) ship each local array once.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import time
import warnings
import weakref
from itertools import count
from multiprocessing import connection
from typing import Any

from .dispatch import Executor
from .tasks import ExecutorError, Ref, TaskResult, run_task
from .wire import recv_msg, send_msg

__all__ = [
    "ProcessExecutor",
    "ProcessSession",
    "reap_all_sessions",
    "shutdown_escalations",
]

#: every live session, for the test-suite orphan reaper
_LIVE_SESSIONS: "weakref.WeakSet[ProcessSession]" = weakref.WeakSet()

#: per-step grace period for teardown joins (tests shrink this)
_JOIN_GRACE_S = 2.0

#: workers that ever needed forced termination at shutdown, process-wide
_escalations_total = 0
_escalation_warned = False


def shutdown_escalations() -> int:
    """Shutdown joins that escalated to terminate/kill in this process."""
    return _escalations_total


def _note_escalations(n: int) -> None:
    """Count ``n`` forced terminations; warn the host once per process."""
    global _escalations_total, _escalation_warned
    _escalations_total += n
    if not _escalation_warned:
        _escalation_warned = True
        warnings.warn(
            f"{n} rank worker(s) ignored the stop envelope and were "
            "forcibly terminated (join -> terminate -> kill); a worker "
            "that wedges at shutdown usually hung or stopped mid-task",
            RuntimeWarning,
            stacklevel=3,
        )


def reap_all_sessions() -> int:
    """Shut down every live session; returns how many were reaped."""
    sessions = list(_LIVE_SESSIONS)
    for session in sessions:
        session.shutdown()
    return len(sessions)


def _start_method() -> str:
    """The multiprocessing start method for rank workers.

    ``fork`` keeps worker startup cheap enough to run the whole tier-1
    suite under ``REPRO_EXECUTOR=process``; platforms without it (and
    ``REPRO_EXEC_START_METHOD`` users) fall back to ``spawn``.
    """
    override = os.environ.get("REPRO_EXEC_START_METHOD")
    if override:
        return override
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"  # pragma: no cover - non-fork platforms


def _worker_main(conn: Any, rank: int, inherited: list[Any]) -> None:
    """One rank's worker loop: receive envelopes, run tasks, reply.

    ``inherited`` are coordinator-side socket ends a ``fork`` copied
    into this process; they are closed first, so the coordinator's death
    reaches every worker as EOF on its socket instead of leaving it
    orphaned.

    Envelopes (coordinator → worker):

    * ``("value", key, value)`` — store-cache push;
    * ``("task", name, ctx_rank, backend, count_kernels, kwargs)`` —
      run a task (``Ref`` markers in ``kwargs`` resolve from the store);
    * ``("clear",)`` — drop the store (machine reset);
    * ``("stop",)`` — exit.

    Each task gets exactly one reply, its :class:`TaskResult`.
    """
    for end in inherited:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the coordinator decides
    from ..kernels import dispatch as kernel_dispatch
    from ..kernels import use_backend

    # a forked worker inherits whatever dynamic kernel scope the
    # coordinator had open; tasks select their backend explicitly
    kernel_dispatch._scope_stack.clear()
    kernel_dispatch._call_hooks.clear()
    store: dict[str, Any] = {}
    while True:
        try:
            envelope = recv_msg(conn)
        except (EOFError, OSError):  # pragma: no cover - coordinator died
            break
        op = envelope[0]
        if op == "stop":
            break
        if op == "clear":
            store.clear()
            continue
        if op == "value":
            _, key, value = envelope
            store[key] = value
            continue
        _, name, ctx_rank, backend, count_kernels, kwargs = envelope
        try:
            resolved = {
                k: store[v.key] if isinstance(v, Ref) else v
                for k, v in kwargs.items()
            }
            with use_backend(backend):
                result = run_task(
                    name, ctx_rank, resolved, count_kernels=count_kernels
                )
        except Exception as err:  # infrastructure failure, not task error
            result = TaskResult(error=ExecutorError(repr(err)))
        try:
            send_msg(conn, result)
        except OSError:  # the coordinator closed its end mid-reply
            break
        except Exception as err:
            # unpicklable value/error (raised before any byte was sent):
            # ship the charges with a diagnosis
            send_msg(
                conn,
                TaskResult(
                    charges=result.charges,
                    kernel_calls=result.kernel_calls,
                    wall_s=result.wall_s,
                    error=ExecutorError(
                        f"rank {rank}: result not transferable: {err!r}"
                    ),
                ),
            )
    conn.close()


class ProcessSession:
    """One machine's pool of rank workers plus the store-version cache."""

    inline = False

    def __init__(self, n_procs: int) -> None:
        self.n_procs = n_procs
        self._ctx = multiprocessing.get_context(_start_method())
        self._workers: list[Any] = [None] * n_procs
        self._conns: list[Any] = [None] * n_procs
        #: the task id each rank's worker owes a reply for; task ids are
        #: never reused, so a handle is live only while it matches
        self._outstanding: list[int | None] = [None] * n_procs
        #: (rank, key) -> version the rank's worker last received
        self._cache: dict[tuple[int, str], int] = {}
        self._task_ids = count()
        _LIVE_SESSIONS.add(self)
        self._finalizer = weakref.finalize(self, _shutdown_impl, self._workers, self._conns)

    # ------------------------------------------------------------------
    def _ensure_worker(self, rank: int) -> Any:
        """The rank's live socket end, (re)spawning the worker if needed."""
        if not 0 <= rank < self.n_procs:
            raise ValueError(f"rank {rank} out of range for p={self.n_procs}")
        worker = self._workers[rank]
        if worker is not None and worker.is_alive():
            return self._conns[rank]
        if worker is not None:  # died or was killed: forget its state
            self._forget_rank(rank)
        parent_conn, child_conn = socket.socketpair()
        # a forked child shares this process's memory image: hand it the
        # coordinator ends it must close (this pair's and every live
        # session's); spawn pickles args and inherits no descriptors
        inherited = (
            [parent_conn]
            + [c for s in _LIVE_SESSIONS for c in s._conns if c is not None]
            if self._ctx.get_start_method() == "fork"
            else []
        )
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, rank, inherited),
            name=f"repro-rank-{rank}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._workers[rank] = proc
        self._conns[rank] = parent_conn
        return parent_conn

    def _forget_rank(self, rank: int) -> None:
        if self._conns[rank] is not None:
            self._conns[rank].close()
        self._workers[rank] = None
        self._conns[rank] = None
        self._outstanding[rank] = None
        for cache_key in [k for k in self._cache if k[0] == rank]:
            del self._cache[cache_key]

    # ------------------------------------------------------------------
    def dispatch(
        self,
        rank: int,
        task: str,
        ctx_rank: int,
        kwargs: dict[str, Any],
        refs: dict[str, tuple[str, int, Any]],
        *,
        backend: str,
        count_kernels: bool,
        deadline: float | None = None,
    ) -> tuple[int, int]:
        """Start ``task`` on rank ``rank``'s worker; returns a handle.

        ``refs`` maps kwarg names to ``(key, version, value)``; values
        whose version the worker already holds stay home.  A reply
        nobody collected is read and discarded first (one task in
        flight per worker).  Every read and send is bounded by
        ``deadline``; past it :class:`TimeoutError` propagates and the
        worker must be killed.
        """
        conn = self._ensure_worker(rank)
        task_id = next(self._task_ids)
        try:
            abandoned = self._outstanding[rank]
            if abandoned is not None:
                self._read_reply(rank, abandoned, deadline)
            for key, version, value in refs.values():
                if self._cache.get((rank, key)) != version:
                    send_msg(conn, ("value", key, value), deadline)
                    self._cache[(rank, key)] = version
            send_msg(
                conn,
                ("task", task, ctx_rank, backend, count_kernels, kwargs),
                deadline,
            )
        except TimeoutError:
            raise
        except OSError as err:
            raise ExecutorError(
                f"worker for rank {rank} is unreachable: {err!r}"
            ) from err
        self._outstanding[rank] = task_id
        return (rank, task_id)

    def result(
        self, handle: tuple[int, int], deadline: float | None = None
    ) -> TaskResult:
        """Wait for one dispatched task's result.

        Waits on the worker's socket *and* its process sentinel, so a
        worker that died raises :class:`ExecutorError` (buffered replies
        are still read before the sentinel is believed).  A worker still
        silent at ``deadline`` — or one whose reply is still arriving —
        raises :class:`TimeoutError`; ``None`` waits forever.
        """
        rank, task_id = handle
        if self._outstanding[rank] != task_id:
            raise ExecutorError(
                f"task {task_id} on rank {rank} is lost (already collected, "
                "superseded, or its worker restarted)"
            )
        conn, worker = self._conns[rank], self._workers[rank]
        timeout = None if deadline is None else max(deadline - time.monotonic(), 0.0)
        ready = connection.wait([conn, worker.sentinel], timeout=timeout)
        if conn in ready:
            return self._read_reply(rank, task_id, deadline)
        if worker.sentinel in ready:
            self._forget_rank(rank)
            raise ExecutorError(
                f"worker for rank {rank} died before returning task "
                f"{task_id}: process exited"
            )
        raise TimeoutError(f"rank {rank} is silent past task {task_id}'s deadline")

    def _read_reply(
        self, rank: int, task_id: int, deadline: float | None
    ) -> TaskResult:
        """Read the one reply the rank's worker owes for ``task_id``."""
        try:
            result: TaskResult = recv_msg(self._conns[rank], deadline)
        except TimeoutError:
            raise
        except (EOFError, OSError) as err:
            self._forget_rank(rank)
            raise ExecutorError(
                f"worker for rank {rank} died before returning task "
                f"{task_id}: {err!r}"
            ) from err
        self._outstanding[rank] = None
        return result

    # ------------------------------------------------------------------
    # supervision primitives (repro.exec.supervise drives these)
    # ------------------------------------------------------------------
    def worker_pid(self, rank: int) -> int | None:
        """The rank's live worker pid (``None`` when not spawned)."""
        worker = self._workers[rank]
        return worker.pid if worker is not None else None

    def kill_worker(self, rank: int) -> None:
        """Hard-kill the rank's worker and forget its state.

        ``SIGKILL`` (not terminate) so even a ``SIGSTOP``-ped worker —
        on which a ``SIGTERM`` would stay pending forever — dies now.
        The next dispatch respawns.
        """
        worker = self._workers[rank]
        if worker is None:
            return
        if worker.is_alive():
            worker.kill()
            worker.join(timeout=_JOIN_GRACE_S)
        self._forget_rank(rank)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Machine reset: clear every worker's store (and the cache)."""
        self._cache.clear()
        for rank, conn in enumerate(self._conns):
            worker = self._workers[rank]
            if conn is None or worker is None or not worker.is_alive():
                continue
            try:
                send_msg(conn, ("clear",))
            except OSError:  # pragma: no cover
                self._forget_rank(rank)

    def kill_rank(self, rank: int) -> None:
        """Fail-stop death: terminate the rank's worker and drop its state.

        Mirrors the simulator wiping a dead rank's processor; a later
        machine reset simply respawns the worker on next use.
        """
        worker = self._workers[rank]
        if worker is not None and worker.is_alive():
            worker.terminate()
            worker.join(timeout=5)
            if worker.is_alive():  # e.g. SIGSTOPped: the TERM stays pending
                worker.kill()
                worker.join(timeout=5)
        self._forget_rank(rank)

    def shutdown(self) -> int:
        """Stop every worker and close every socket (idempotent).

        Returns how many workers ignored the stop envelope and needed
        the join → terminate → kill escalation (also counted in the
        process-wide :func:`shutdown_escalations` metric, with a
        once-per-process warning on the host).
        """
        escalated = _shutdown_impl(self._workers, self._conns)
        for rank in range(self.n_procs):
            self._workers[rank] = None
            self._conns[rank] = None
            self._outstanding[rank] = None
        self._cache.clear()
        self._finalizer.detach()
        _LIVE_SESSIONS.discard(self)
        if escalated:
            _note_escalations(escalated)
        return escalated

    def __repr__(self) -> str:  # pragma: no cover - debug nicety
        live = sum(1 for w in self._workers if w is not None and w.is_alive())
        return f"<ProcessSession p={self.n_procs} live_workers={live}>"


def _shutdown_impl(workers: list[Any], conns: list[Any]) -> int:
    """Teardown shared by :meth:`shutdown` and the GC finalizer.

    Takes the mutable lists (not the session) so ``weakref.finalize``
    holds no reference cycle back to the session object.  Returns the
    number of workers that ignored the stop envelope and had to be
    escalated join → terminate → kill; the final ``kill`` rung matters
    because a stopped (``SIGSTOP``) worker never delivers the pending
    ``SIGTERM`` — only ``SIGKILL`` fells it, and dropping through with
    the worker alive would leak a zombie into the host's process table.
    The sockets close before the joins, so a worker blocked writing a
    reply nobody will collect fails its write and exits instead of
    waiting out the grace period.
    """
    for worker, conn in zip(workers, conns):
        if conn is not None and worker is not None and worker.is_alive():
            try:
                send_msg(conn, ("stop",), time.monotonic() + _JOIN_GRACE_S)
            except OSError:  # pragma: no cover - dead or wedged worker
                pass
    for conn in conns:
        if conn is not None:
            conn.close()
    escalated = 0
    for worker in workers:
        if worker is not None and worker.is_alive():
            worker.join(timeout=_JOIN_GRACE_S)
            if worker.is_alive():  # wedged worker: escalate
                escalated += 1
                worker.terminate()
                worker.join(timeout=_JOIN_GRACE_S)
                if worker.is_alive():  # stopped/unkillable-by-TERM: kill
                    worker.kill()
                    worker.join(timeout=_JOIN_GRACE_S)
    return escalated


class ProcessExecutor(Executor):
    """One worker process per rank, one socket pair per worker.

    When a supervision plan is in scope (``--supervise`` /
    :func:`~repro.exec.supervise.use_supervision`),
    the session comes wrapped in a
    :class:`~repro.exec.supervise.SupervisedSession` — crash/hang
    detection and bounded restart-and-replay ride on top of the bare
    session transparently.
    """

    name = "process"

    def create_session(self, n_procs: int) -> Any:
        from .supervise import SupervisedSession, current_supervision

        session = ProcessSession(n_procs)
        spec = current_supervision()
        if spec is None:
            return session
        return SupervisedSession(session, spec)
