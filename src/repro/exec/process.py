"""The rank-per-process executor: one OS process per simulated rank.

Topology: the coordinator (the process driving the
:class:`~repro.machine.machine.Machine`) owns the simulated clock, the
trace ledger, the fault injector and every mailbox; each rank gets one
long-lived daemon worker connected by a duplex pipe, with large frames
riding :mod:`repro.exec.wire`'s shared-memory segments.  Workers execute
registered rank tasks (:mod:`repro.exec.tasks`) — pure receiver-side
arithmetic — and return values plus deferred cost charges; the
coordinator replays those charges deterministically in rank order, which
is why the trace is byte-identical to the inline simulator no matter how
execution interleaves in wall-clock time.

What is parallel: the receiver-side kernels (compress / unpack / decode /
SpMV partials) across ranks.  What stays coordinated: sends, the fault
injector's RNG, retries/acks, membership, all cost accounting.  See
DESIGN.md §"Execution tiers".

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
import time
import warnings
import weakref
from itertools import count
from multiprocessing import connection
from typing import Any, Callable

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

    ``inherited`` are coordinator-side pipe ends a ``fork`` copied into
    this process; they are closed first, so the coordinator's death
    reaches every worker as EOF on its pipe instead of leaving it
    orphaned.

    Envelopes (coordinator → worker):

    * ``("value", key, value)`` — store-cache push;
    * ``("task", id, name, ctx_rank, backend, count_kernels, kwargs)`` —
      run a task (``Ref`` markers in ``kwargs`` resolve from the store);
    * ``("clear",)`` — drop the store (machine reset);
    * ``("stop",)`` — exit.

    Replies are ``("result", id, TaskResult)``, strictly FIFO.
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
        _, task_id, name, ctx_rank, backend, count_kernels, kwargs = envelope
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
            send_msg(conn, ("result", task_id, result))
        except Exception as err:
            # unpicklable value/error: ship the charges with a diagnosis
            send_msg(
                conn,
                (
                    "result",
                    task_id,
                    TaskResult(
                        charges=result.charges,
                        kernel_calls=result.kernel_calls,
                        wall_s=result.wall_s,
                        error=ExecutorError(
                            f"rank {rank}: result not transferable: {err!r}"
                        ),
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
        # start the resource-tracker daemon *before* any worker forks: a
        # worker forked first would lazily spawn its own tracker on its
        # first SharedMemory attach, and its unregisters would then never
        # reach the parent's daemon — which warns about (and re-unlinks)
        # every host-created segment at exit
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self._workers: list[Any] = [None] * n_procs
        self._conns: list[Any] = [None] * n_procs
        #: worker generation per rank; handles from an older generation
        #: can never match a restarted worker's replies
        self._gen = [0] * n_procs
        #: (rank, key) -> version the rank's worker last received
        self._cache: dict[tuple[int, str], int] = {}
        #: supervisor hook: called ``(rank, segment_name)`` for every
        #: host-created SharedMemory segment the moment it exists, so a
        #: crash sweep can reclaim segments a dead worker never consumed
        self._segment_sink: Callable[[int, str], None] | None = None
        self._task_ids = count()
        _LIVE_SESSIONS.add(self)
        self._finalizer = weakref.finalize(self, _shutdown_impl, self._workers, self._conns)

    # ------------------------------------------------------------------
    def _ensure_worker(self, rank: int) -> Any:
        """The rank's live pipe endpoint, (re)spawning the worker if needed."""
        if not 0 <= rank < self.n_procs:
            raise ValueError(f"rank {rank} out of range for p={self.n_procs}")
        worker = self._workers[rank]
        if worker is not None and worker.is_alive():
            return self._conns[rank]
        if worker is not None:  # died or was killed: forget its state
            self._forget_rank(rank)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # a forked child shares this process's memory image: hand it the
        # coordinator ends it must close (this pipe's and every live
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
        conn = self._conns[rank]
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._workers[rank] = None
        self._conns[rank] = None
        self._gen[rank] += 1
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
    ) -> tuple[int, int, int]:
        """Start ``task`` on rank ``rank``'s worker; returns a handle.

        ``refs`` maps kwarg names to ``(key, version, value)``; values
        whose version the worker already holds stay home.
        """
        conn = self._ensure_worker(rank)
        task_id = next(self._task_ids)
        sink = self._segment_sink
        on_segment = None if sink is None else (lambda name: sink(rank, name))
        try:
            for key, version, value in refs.values():
                if self._cache.get((rank, key)) != version:
                    send_msg(conn, ("value", key, value), on_segment=on_segment)
                    self._cache[(rank, key)] = version
            send_msg(
                conn,
                ("task", task_id, task, ctx_rank, backend, count_kernels, kwargs),
                on_segment=on_segment,
            )
        except (OSError, BrokenPipeError) as err:
            raise ExecutorError(
                f"worker for rank {rank} is unreachable: {err!r}"
            ) from err
        return (rank, self._gen[rank], task_id)

    def result(self, handle: tuple[int, int, int]) -> TaskResult:
        """Block for one dispatched task's result.

        Replies are FIFO per worker; results abandoned by an aborted run
        (a scheme that raised mid-collection) are drained and discarded
        here until the requested task id arrives.
        """
        rank, gen, task_id = handle
        if gen != self._gen[rank] or self._conns[rank] is None:
            raise ExecutorError(
                f"worker for rank {rank} was restarted; task {task_id} is lost"
            )
        conn = self._conns[rank]
        while True:
            try:
                reply = recv_msg(conn)
            except (EOFError, OSError) as err:
                self._forget_rank(rank)
                raise ExecutorError(
                    f"worker for rank {rank} died before returning task "
                    f"{task_id}: {err!r}"
                ) from err
            if reply[0] == "result" and reply[1] == task_id:
                result: TaskResult = reply[2]
                return result
            # an older, abandoned task's reply: discard and keep reading

    # ------------------------------------------------------------------
    # supervision primitives (repro.exec.supervise drives these)
    # ------------------------------------------------------------------
    def set_segment_sink(self, sink: Callable[[int, str], None] | None) -> None:
        """Install the supervisor's host-created-segment ledger hook."""
        self._segment_sink = sink

    def worker_pid(self, rank: int) -> int | None:
        """The rank's live worker pid (``None`` when not spawned)."""
        worker = self._workers[rank]
        return worker.pid if worker is not None else None

    def kill_worker(self, rank: int) -> int | None:
        """Hard-kill the rank's worker; returns its pid for attribution.

        ``SIGKILL`` (not terminate) so even a ``SIGSTOP``-ped worker —
        on which a ``SIGTERM`` would stay pending forever — dies now.
        The worker's state is forgotten; the next dispatch respawns.
        """
        worker = self._workers[rank]
        if worker is None:
            return None
        pid: int | None = worker.pid
        if worker.is_alive():
            worker.kill()
            worker.join(timeout=_JOIN_GRACE_S)
        self._forget_rank(rank)
        return pid

    def try_result(
        self, handle: tuple[int, int, int], timeout: float
    ) -> TaskResult | None:
        """Poll one dispatched task for up to ``timeout`` seconds.

        Waits on the worker's pipe *and* its process sentinel; returns
        ``None`` when the worker is alive but silent past the timeout
        (the supervisor's hang-detection window) and raises
        :class:`ExecutorError` when the worker died first (pipe-EOF or
        sentinel) — buffered replies are still drained before the
        sentinel is believed.
        """
        rank, gen, task_id = handle
        if gen != self._gen[rank] or self._conns[rank] is None:
            raise ExecutorError(
                f"worker for rank {rank} was restarted; task {task_id} is lost"
            )
        conn = self._conns[rank]
        worker = self._workers[rank]
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            ready = connection.wait(
                [conn, worker.sentinel], timeout=max(remaining, 0.0)
            )
            if conn in ready:
                try:
                    reply = recv_msg(conn)
                except (EOFError, OSError) as err:
                    self._forget_rank(rank)
                    raise ExecutorError(
                        f"worker for rank {rank} died before returning task "
                        f"{task_id}: {err!r}"
                    ) from err
                if reply[0] == "result" and reply[1] == task_id:
                    result: TaskResult = reply[2]
                    return result
                continue  # an abandoned task's reply: discard, keep reading
            if worker.sentinel in ready:
                self._forget_rank(rank)
                raise ExecutorError(
                    f"worker for rank {rank} died before returning task "
                    f"{task_id}: process exited"
                )
            if remaining <= 0:
                return None

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
            except (OSError, BrokenPipeError):  # pragma: no cover
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
        self._workers[rank] = None

    def shutdown(self) -> int:
        """Stop every worker and close every pipe (idempotent).

        Returns how many workers ignored the stop envelope and needed
        the join → terminate → kill escalation (also counted in the
        process-wide :func:`shutdown_escalations` metric, with a
        once-per-process warning on the host).
        """
        escalated = _shutdown_impl(self._workers, self._conns)
        for rank in range(self.n_procs):
            self._workers[rank] = None
            self._conns[rank] = None
            self._gen[rank] += 1
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
    """
    for worker, conn in zip(workers, conns):
        if conn is not None and worker is not None and worker.is_alive():
            try:
                send_msg(conn, ("stop",))
            except (OSError, BrokenPipeError):  # pragma: no cover
                pass
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
    for conn in conns:
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
    return escalated


class ProcessExecutor(Executor):
    """One worker process per rank, shared-memory wire buffers.

    When a supervision plan is in scope (``--supervise`` /
    ``REPRO_SUPERVISE`` / :func:`~repro.exec.supervise.use_supervision`),
    the session comes wrapped in a
    :class:`~repro.exec.supervise.SupervisedSession` — crash/hang
    detection, bounded restart-and-replay and SharedMemory crash sweeps
    ride on top of the bare session transparently.
    """

    name = "process"

    def create_session(self, n_procs: int) -> Any:
        from .supervise import SupervisedSession, current_supervision

        session = ProcessSession(n_procs)
        spec = current_supervision()
        if spec is None:
            return session
        return SupervisedSession(session, spec)
