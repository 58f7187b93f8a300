"""The rank pool: the coordinator side of deferred rank-task execution.

Scheme and app receiver loops drive their per-rank work through one of
these instead of computing inline:

.. code-block:: python

    pool = machine.rank_pool()
    for assignment in plan:                       # fan out
        pool.submit(assignment.rank, "ed.decode", Phase.COMPRESSION,
                    frame=pool.take_frame(assignment.rank, "special-buffer"),
                    conv=conv)
    for assignment in plan:                       # collect, in rank order
        compressed = pool.result(assignment.rank)

``submit`` hands the task to the machine's executor session (inline for
``sim``, a worker process for ``process``); ``result`` waits for the
value, merges the worker's kernel-call counts into the machine's
metrics, **replays the task's deferred charges through the machine** and
only then returns (or raises the task's error).  Because the replay
happens in ``result``-call order — the schemes call it in plan order —
the trace ledger records exactly the events the fully-serial receiver
loop recorded, whichever executor ran the arithmetic.

Error positions are part of the byte-identity contract.  A serial
receiver raises ``DeadRankError``/``LookupError`` *at its rank's turn*,
after every earlier rank's charges; :meth:`RankPool.take_frame` therefore
never raises — it returns a :class:`~repro.exec.tasks.PoisonFrame` whose
error :meth:`RankPool.result` re-raises at that exact position.  The
same deferral applies to store-reference resolution (``KeyError`` /
``DeadRankError`` from a dead or empty rank).

Tasks are submitted and charged under the ranks the machine's rank map
addresses (:meth:`~repro.machine.machine.Machine.remap`).  Under a
survivor roster the pool picks the worker of the physical rank; a ghost
rank's tasks run inline (its worker is dead — the host really does that
work, and the machine charges it to the host's serial timeline).
"""

from __future__ import annotations

from typing import Any

from ..machine.membership import DeadRankError
from ..machine.trace import Phase
from .tasks import PoisonFrame, Ref, TaskResult, run_task

__all__ = ["RankPool"]


class RankPool:
    """Deferred per-rank task execution against one machine."""

    def __init__(self, machine: Any, session: Any) -> None:
        self.machine = machine
        self.session = session
        #: rank -> ("error", exc) | ("result", TaskResult) | ("handle", h)
        self._pending: dict[int, tuple[str, Any]] = {}

    # ------------------------------------------------------------------
    # envelope builders
    # ------------------------------------------------------------------
    def take_frame(self, rank: int, tag: str | None = None) -> Any:
        """Pop ``rank``'s oldest matching frame, the ``Message`` itself.

        The rank task verifies it (:meth:`~repro.exec.tasks.TaskContext.
        open_frame`).  Pop errors (dead rank, empty mailbox) come back as
        a :class:`PoisonFrame` — submitted normally and raised by
        :meth:`result` at the rank's stream position, like the serial
        receiver would.
        """
        try:
            return self.machine._pop_frame(rank, tag)
        except (DeadRankError, LookupError) as err:
            return PoisonFrame(err)

    def ref(self, key: str) -> Ref:
        """Reference the submitting rank's stored object named ``key``."""
        return Ref(key)

    # ------------------------------------------------------------------
    # submit / result
    # ------------------------------------------------------------------
    def submit(self, rank: int, task: str, phase: Phase, **kwargs: Any) -> None:
        """Queue ``task`` for ``rank``; collect it later with :meth:`result`.

        ``phase`` names the phase the task's charges belong to — the
        static phase-protocol analysis (RL003) classifies the call by it.
        Frame poisons and reference-resolution errors are recorded here
        (frames before references: receive precedes load serially) and
        surface from :meth:`result`.
        """
        if rank in self._pending:
            raise RuntimeError(
                f"rank {rank} already has a pending task; collect it first"
            )
        for value in kwargs.values():
            if isinstance(value, PoisonFrame):
                self._pending[rank] = ("error", value.error)
                return
        try:
            resolved, refs = self._resolve_refs(rank, kwargs)
        except (DeadRankError, KeyError) as err:
            self._pending[rank] = ("error", err)
            return
        if self.session.inline or self.machine.is_ghost(rank):
            self._pending[rank] = ("result", run_task(task, rank, resolved))
            return
        from ..kernels import current_backend

        # ship the Ref markers, not the values: the session's version
        # cache decides per worker whether the value must travel at all
        handle = self.session.dispatch(
            self.machine.physical(rank),
            task,
            rank,
            kwargs,
            refs,
            backend=current_backend().name,
            count_kernels=self.machine.obs.enabled,
        )
        self._pending[rank] = ("handle", handle)

    def result(self, rank: int) -> Any:
        """Collect ``rank``'s task: replay its charges, return its value.

        Deferred charges are replayed through the machine's
        ``charge_proc_ops`` (rank map included) *before* a task error is
        re-raised — the serial receiver charges before it raises too.
        """
        try:
            kind, payload = self._pending.pop(rank)
        except KeyError:
            raise RuntimeError(f"rank {rank} has no pending task") from None
        if kind == "error":
            raise payload
        task_result: TaskResult = (
            self.session.result(payload) if kind == "handle" else payload
        )
        obs = self.machine.obs
        if obs.enabled:
            for backend_name, kernel_name in task_result.kernel_calls:
                obs.record_kernel_call(backend_name, kernel_name)
        for charge in task_result.charges:
            self.machine.charge_proc_ops(
                rank, charge.n_ops, charge.phase, label=charge.label
            )
        if task_result.error is not None:
            raise task_result.error
        return task_result.value

    # ------------------------------------------------------------------
    def _resolve_refs(
        self, rank: int, kwargs: dict[str, Any]
    ) -> tuple[dict[str, Any], dict[str, tuple[str, int, Any]]]:
        """Resolve :class:`Ref` markers from the host-side processor store.

        Returns the kwargs for inline execution (refs replaced by their
        values) plus the ref table a process session uses for its
        version cache: ``name -> (key, version, value)``.
        """
        refs: dict[str, tuple[str, int, Any]] = {}
        resolved = dict(kwargs)
        for name, value in kwargs.items():
            if isinstance(value, Ref):
                proc = self.machine.processor(rank)
                stored = proc.load(value.key)
                version = proc.versions.get(value.key, -1)
                resolved[name] = stored
                refs[name] = (value.key, version, stored)
        return resolved, refs
