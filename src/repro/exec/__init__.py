"""Executor tiers: where rank tasks run (inline simulator or real processes).

Public surface:

* selection — :func:`get_executor`, :func:`available_executors`,
  :func:`current_executor_name` (``REPRO_EXECUTOR`` sets the default);
* the coordinator API — :class:`RankPool` (via ``machine.rank_pool()``),
  :func:`rank_task` for registering new tasks;
* supervision — :class:`SuperviseSpec`, :func:`use_supervision`,
  :func:`current_supervision`
  (``REPRO_SUPERVISE`` sets the default), :class:`SupervisorSummary`,
  :class:`WorkerCrashError` for real crash/hang/leak tolerance on the
  process executor;
* test/teardown hooks — :func:`reap_all_sessions`,
  :func:`reap_leaked_segments`, :func:`shutdown_escalations`.

See DESIGN.md §"Execution tiers" for the byte-identity contract and
§"Real-fault supervision" for the crash/hang/leak taxonomy.
"""

from .dispatch import (
    Executor,
    available_executors,
    current_executor_name,
    get_executor,
    register_executor,
)
from .pool import RankPool
from .process import (
    ProcessExecutor,
    ProcessSession,
    reap_all_sessions,
    shutdown_escalations,
)
from .sim import SimExecutor
from .supervise import (
    SupervisedSession,
    SuperviseSpec,
    SupervisorSummary,
    WorkerCrashError,
    current_supervision,
    use_supervision,
)
from .tasks import (
    Charge,
    ExecutorError,
    PoisonFrame,
    Ref,
    TaskContext,
    TaskResult,
    WireFrame,
    get_task,
    rank_task,
    run_task,
)
from .wire import reap_leaked_segments

__all__ = [
    "Charge",
    "Executor",
    "ExecutorError",
    "PoisonFrame",
    "ProcessExecutor",
    "ProcessSession",
    "RankPool",
    "Ref",
    "SimExecutor",
    "SupervisedSession",
    "SuperviseSpec",
    "SupervisorSummary",
    "TaskContext",
    "TaskResult",
    "WireFrame",
    "WorkerCrashError",
    "available_executors",
    "current_executor_name",
    "current_supervision",
    "get_executor",
    "get_task",
    "rank_task",
    "reap_all_sessions",
    "reap_leaked_segments",
    "register_executor",
    "run_task",
    "shutdown_escalations",
    "use_supervision",
]
