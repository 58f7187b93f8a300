"""Supervised process execution: real-fault tolerance for rank workers.

The simulator's fault layer (:mod:`repro.faults`) perturbs *simulated*
messages; this module handles the faults the ``process`` executor newly
made possible: a rank worker — a real OS process — can be OOM-killed,
wedge in a syscall, or die mid-pickle.  Without supervision any of those
takes the whole run down.

:class:`SupervisedSession` wraps a bare
:class:`~repro.exec.process.ProcessSession` with four defences:

* **deadlines / watchdog** — every dispatched task carries a wall-clock
  deadline (``task_timeout_s``), set *before* the envelope is sent.  It
  bounds every host-side send and read for the task, and the host waits
  on the worker's socket *and* its process sentinel, so a hung (e.g.
  ``SIGSTOP``-ed) worker is detected the moment its deadline passes,
  not never — even when the host is mid-way through writing a large
  envelope the stopped worker will never read;
* **crash detection** — socket EOF or a closed sentinel before the reply
  surfaces as a typed :class:`WorkerCrashError` carrying the failed rank
  and its last-known task (raised only when recovery is impossible or
  disabled — see below);
* **bounded restart-and-replay** — rank tasks are pure
  ``(value, charges)`` functions of their envelope, so a crashed or hung
  worker is killed, respawned, and its pending task re-dispatched with
  exponential backoff under a per-rank restart budget.  The session's
  store-version cache is wiped with the worker, so replays re-ship every
  referenced value.  Because the replay produces the same value and the
  same deferred charges, results stay **byte-identical to the inline
  simulator by construction** (the ``oschaos`` battery pins this under
  random ``SIGKILL``/``SIGSTOP``);
* **graceful degradation** — when a rank exhausts its restart budget
  (or the platform cannot fork a replacement), the rank is *downgraded*:
  its tasks run inline on the host exactly like the ``sim`` executor,
  the downgrade is recorded in the supervisor summary and obs metrics,
  and the run completes instead of failing.

Selection: an explicit ``supervise=`` on ``run_scheme`` /
``RunRequest`` (the CLI's ``--supervise spec.json``) or a
:func:`use_supervision` scope.  With neither active,
``ProcessExecutor`` hands out bare sessions and nothing changes.

See DESIGN.md §"Real-fault supervision" for the simulated-vs-real fault
taxonomy.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from .tasks import ExecutorError, Ref, TaskResult, run_task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.spans import Observability
    from .process import ProcessSession

__all__ = [
    "SupervisedSession",
    "SuperviseSpec",
    "SupervisorSummary",
    "WorkerCrashError",
    "current_supervision",
    "use_supervision",
]


class WorkerCrashError(ExecutorError):
    """A rank worker process really died (or hung) and was not recoverable.

    ``rank`` is the physical rank whose worker failed, ``task`` the
    last-known task it was running (``None`` when it died between
    tasks), ``reason`` is ``"crash"`` (socket EOF / sentinel) or
    ``"hang"`` (deadline exceeded).  Under supervision this only
    escapes when the restart budget is exhausted *and* degradation is
    disabled (``SuperviseSpec(degrade=False)``).
    """

    def __init__(
        self,
        message: str,
        *,
        rank: int,
        task: str | None = None,
        reason: str = "crash",
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.task = task
        self.reason = reason


@dataclass(frozen=True)
class SuperviseSpec:
    """The supervision plan (all knobs host-side wall-clock).

    ``task_timeout_s`` is the per-task deadline the watchdog enforces;
    ``max_restarts`` is the per-rank worker-restart budget;
    ``backoff_s`` · ``backoff_factor^(attempt-1)`` (capped at
    ``max_backoff_s``) is slept before each respawn; ``degrade=False``
    turns budget exhaustion into a :class:`WorkerCrashError` instead of
    draining the rank onto the inline simulator.
    """

    task_timeout_s: float = 30.0
    max_restarts: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.task_timeout_s <= 0:
            raise ValueError(
                f"task_timeout_s must be > 0, got {self.task_timeout_s}"
            )
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_backoff_s < self.backoff_s:
            raise ValueError(
                f"max_backoff_s ({self.max_backoff_s}) must be >= "
                f"backoff_s ({self.backoff_s})"
            )

    def backoff_for(self, attempt: int) -> float:
        """Seconds to sleep before restart ``attempt`` (1-based)."""
        raw = self.backoff_s * self.backoff_factor ** max(attempt - 1, 0)
        return min(raw, self.max_backoff_s)

    # ------------------------------------------------------------------
    # (de)serialisation — mirrors FaultSpec's strict JSON contract
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "task_timeout_s": self.task_timeout_s,
            "max_restarts": self.max_restarts,
            "backoff_s": self.backoff_s,
            "backoff_factor": self.backoff_factor,
            "max_backoff_s": self.max_backoff_s,
            "degrade": self.degrade,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "SuperviseSpec":
        """Build a spec from a plain mapping; unknown keys fail loudly."""
        known = {
            "task_timeout_s", "max_restarts", "backoff_s",
            "backoff_factor", "max_backoff_s", "degrade",
        }
        unknown = set(raw) - known
        if unknown:
            raise ValueError(
                f"unknown supervise-spec keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        kwargs: dict[str, Any] = {}
        for key in ("task_timeout_s", "backoff_s", "backoff_factor", "max_backoff_s"):
            if key in raw:
                kwargs[key] = float(raw[key])
        if "max_restarts" in raw:
            kwargs["max_restarts"] = int(raw["max_restarts"])
        if "degrade" in raw:
            if not isinstance(raw["degrade"], bool):
                raise ValueError(
                    f"degrade must be a JSON boolean, got {raw['degrade']!r}"
                )
            kwargs["degrade"] = raw["degrade"]
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SuperviseSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "SuperviseSpec":
        """Load a spec from a JSON file (the CLI's ``--supervise``)."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class SupervisorSummary:
    """What real-fault supervision did during one machine's session.

    Kept import-cycle-free like
    :class:`~repro.recovery.summary.RecoverySummary` so
    :mod:`repro.core.base` can carry it on ``SchemeResult`` under
    ``TYPE_CHECKING``.  All counters are cumulative over the session
    (a machine reused across runs keeps accumulating).
    """

    #: worker deaths detected via socket EOF / process sentinel
    crashes: int = 0
    #: workers that blew their task deadline and were hard-killed
    hangs: int = 0
    #: worker respawns performed (bounded by ``max_restarts`` per rank)
    restarts: int = 0
    #: task re-executions after a death (on a fresh worker or inline)
    replays: int = 0
    #: ranks drained onto the inline simulator (budget exhausted)
    downgrades: int = 0
    #: those ranks, ascending
    degraded_ranks: tuple[int, ...] = field(default=())
    #: shutdown joins that had to escalate to terminate/kill
    escalations: int = 0

    @property
    def clean(self) -> bool:
        """True when no real fault was observed (the common case)."""
        return not (
            self.crashes or self.hangs or self.restarts or self.replays
            or self.downgrades or self.escalations
        )

    def line(self) -> str:
        """One-line human summary (mirrors ``SchemeResult.fault_line``)."""
        if self.clean:
            return "supervisor: on, no real faults"
        parts = ["supervisor:"]
        for name in ("crashes", "hangs", "restarts", "replays", "escalations"):
            value = getattr(self, name)
            if value:
                parts.append(f"{name}={value}")
        if self.downgrades:
            parts.append(f"downgraded={list(self.degraded_ranks)}")
        return " ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (used by ``result_to_dict`` and the CLI)."""
        return {
            "crashes": self.crashes,
            "hangs": self.hangs,
            "restarts": self.restarts,
            "replays": self.replays,
            "downgrades": self.downgrades,
            "degraded_ranks": list(self.degraded_ranks),
            "escalations": self.escalations,
        }


# ----------------------------------------------------------------------
# dynamic scoping (mirrors repro.kernels.dispatch)
# ----------------------------------------------------------------------
_scope_stack: list[SuperviseSpec] = []


def current_supervision() -> SuperviseSpec | None:
    """The plan a new process session resolves to (``None`` = bare)."""
    return _scope_stack[-1] if _scope_stack else None


@contextmanager
def use_supervision(spec: SuperviseSpec | None) -> Iterator[SuperviseSpec | None]:
    """Dynamically scope supervision; ``None`` is a no-op scope."""
    if spec is None:
        yield current_supervision()
        return
    _scope_stack.append(spec)
    try:
        yield spec
    finally:
        _scope_stack.pop()


# ----------------------------------------------------------------------
# the supervised session
# ----------------------------------------------------------------------
@dataclass
class _Pending:
    """One dispatched-but-uncollected task, with everything replay needs."""

    seq: int
    rank: int
    task: str
    ctx_rank: int
    kwargs: dict[str, Any]
    refs: dict[str, tuple[str, int, Any]]
    backend: str
    count_kernels: bool
    handle: Any = None
    deadline: float = 0.0
    result: TaskResult | None = None


#: metric help strings, one counter per supervisor action
_METRIC_HELP = {
    "crashes": "Rank worker deaths detected (socket EOF / sentinel)",
    "hangs": "Rank workers hard-killed after blowing a task deadline",
    "restarts": "Rank worker respawns performed by the supervisor",
    "replays": "Tasks re-executed after a worker death",
    "downgrades": "Ranks drained onto the inline simulator",
    "escalations": "Shutdown joins escalated to terminate/kill",
}


class SupervisedSession:
    """A :class:`ProcessSession` wrapped with real-fault tolerance.

    Exposes the same session protocol (``inline`` / ``dispatch`` /
    ``result`` / ``reset`` / ``kill_rank`` / ``shutdown``) so the
    :class:`~repro.exec.pool.RankPool` and the machine drive it
    unchanged, plus :meth:`supervisor_summary` for result plumbing.
    """

    inline = False

    def __init__(self, inner: "ProcessSession", spec: SuperviseSpec) -> None:
        from ..obs.spans import NULL_OBS

        self.inner = inner
        self.spec = spec
        self.n_procs = inner.n_procs
        self._obs: "Observability" = NULL_OBS
        self._seq = count()
        #: physical rank -> its one outstanding task
        self._pending: dict[int, _Pending] = {}
        #: physical rank -> restarts consumed from the budget
        self._restarts: dict[int, int] = {}
        #: ranks drained onto the inline simulator
        self._degraded: set[int] = set()
        self._crashes = 0
        self._hangs = 0
        self._replays = 0
        self._escalations = 0

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def attach_obs(self, obs: "Observability") -> None:
        """Route supervisor counters/spans into the machine's recorder."""
        self._obs = obs

    def _count(self, what: str, amount: int = 1) -> None:
        self._obs.count(
            f"repro_supervisor_{what}_total", amount, help=_METRIC_HELP[what]
        )

    # ------------------------------------------------------------------
    # session protocol
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
    ) -> tuple[str, int, int]:
        """Start ``task`` under supervision; returns an opaque handle."""
        pending = _Pending(
            seq=next(self._seq), rank=rank, task=task, ctx_rank=ctx_rank,
            kwargs=kwargs, refs=refs, backend=backend,
            count_kernels=count_kernels,
        )
        self._pending[rank] = pending
        if rank in self._degraded:
            self._run_degraded(pending)
        else:
            self._launch(pending)
        return ("sup", rank, pending.seq)

    def result(self, handle: tuple[str, int, int]) -> TaskResult:
        """Collect one task, healing crashes/hangs along the way."""
        _, rank, seq = handle
        pending = self._pending.get(rank)
        if pending is None or pending.seq != seq:
            raise ExecutorError(
                f"worker for rank {rank} was restarted; task {seq} is lost"
            )
        del self._pending[rank]
        while pending.result is None:
            try:
                return self.inner.result(pending.handle, pending.deadline)
            except TimeoutError as err:
                self._recover(pending, "hang", err)
            except ExecutorError as err:
                self._recover(pending, "crash", err)
        return pending.result

    def reset(self) -> None:
        self.inner.reset()

    def kill_rank(self, rank: int) -> None:
        """Simulated fail-stop death: never resurrected by the supervisor.

        The pending task (if any) is dropped — a later ``result`` raises
        the same lost-task :class:`ExecutorError` a bare session raises.
        """
        self._pending.pop(rank, None)
        self.inner.kill_rank(rank)

    def shutdown(self) -> int:
        """Tear the inner session down, counting forced terminations."""
        escalated = self.inner.shutdown()
        if escalated:
            self._escalations += escalated
            self._count("escalations", escalated)
        return escalated

    # ------------------------------------------------------------------
    # supervision internals
    # ------------------------------------------------------------------
    def _launch(self, pending: _Pending) -> None:
        """(Re-)dispatch ``pending`` to its worker, healing dispatch faults.

        The deadline starts before the send, so a worker that stops
        reading mid-envelope is a hang, not a host blocked forever.
        """
        pending.deadline = time.monotonic() + self.spec.task_timeout_s
        try:
            pending.handle = self.inner.dispatch(
                pending.rank, pending.task, pending.ctx_rank,
                pending.kwargs, pending.refs,
                backend=pending.backend,
                count_kernels=pending.count_kernels,
                deadline=pending.deadline,
            )
        # _recover either re-launched (recursively, with a fresh handle
        # and deadline), degraded (result computed), or raised —
        # re-dispatching here would double-submit
        except TimeoutError as err:
            self._recover(pending, "hang", err)
        except ExecutorError as err:
            self._recover(pending, "crash", err)

    def _recover(
        self, pending: _Pending, kind: str, cause: BaseException
    ) -> None:
        """Heal one worker death: kill, then restart or degrade."""
        rank = pending.rank
        if kind == "hang":
            self._hangs += 1
            self._count("hangs")
        else:
            self._crashes += 1
            self._count("crashes")
        self.inner.kill_worker(rank)
        used = self._restarts.get(rank, 0)
        if used >= self.spec.max_restarts:
            self._downgrade(pending, kind, cause)
            return
        self._restarts[rank] = used + 1
        self._count("restarts")
        self._replays += 1
        self._count("replays")
        with self._obs.span(
            "supervisor.restart",
            rank=str(rank), task=pending.task, kind=kind,
        ):
            delay = self.spec.backoff_for(used + 1)
            if delay > 0:
                time.sleep(delay)
            self._launch(pending)

    def _downgrade(
        self, pending: _Pending, kind: str, cause: BaseException
    ) -> None:
        """Budget exhausted: drain the rank onto the inline simulator."""
        rank = pending.rank
        if not self.spec.degrade:
            raise WorkerCrashError(
                f"worker for rank {rank} {'hung' if kind == 'hang' else 'crashed'} "
                f"running task {pending.task!r} and its restart budget "
                f"({self.spec.max_restarts}) is exhausted",
                rank=rank, task=pending.task, reason=kind,
            ) from cause
        self._degraded.add(rank)
        self._count("downgrades")
        self._replays += 1
        self._count("replays")
        with self._obs.span(
            "supervisor.degrade",
            rank=str(rank), task=pending.task, kind=kind,
        ):
            self._run_degraded(pending)

    def _run_degraded(self, pending: _Pending) -> None:
        """Run ``pending`` inline, exactly like the ``sim`` executor.

        Refs resolve from the values the pool captured at submit time
        (the host-side source of truth).  Kernel calls are *not* counted
        task-side: inline execution happens inside the machine's ambient
        observed kernel scope, like every ``sim`` task, so counting here
        would double.
        """
        from ..kernels import use_backend

        resolved = {
            name: pending.refs[name][2] if isinstance(value, Ref) else value
            for name, value in pending.kwargs.items()
        }
        with use_backend(pending.backend):
            pending.result = run_task(
                pending.task, pending.ctx_rank, resolved, count_kernels=False
            )

    # ------------------------------------------------------------------
    def supervisor_summary(self) -> SupervisorSummary:
        """Snapshot of everything supervision did so far this session."""
        return SupervisorSummary(
            crashes=self._crashes,
            hangs=self._hangs,
            restarts=sum(self._restarts.values()),
            replays=self._replays,
            downgrades=len(self._degraded),
            degraded_ranks=tuple(sorted(self._degraded)),
            escalations=self._escalations,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug nicety
        return (
            f"<SupervisedSession p={self.n_procs} "
            f"restarts={sum(self._restarts.values())} "
            f"degraded={sorted(self._degraded)}>"
        )
