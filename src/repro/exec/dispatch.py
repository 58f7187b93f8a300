"""Executor registry and dynamic-scope selection.

An :class:`Executor` decides *where* rank tasks run; two are registered:

* ``"sim"`` (:mod:`repro.exec.sim`) — inline in the coordinating
  process, exactly the single-threaded simulator this repo started as
  (default);
* ``"process"`` (:mod:`repro.exec.process`) — one OS process per
  simulated rank, frames on one socket pair per worker.

Selection: an explicit ``executor=`` on :class:`~repro.machine.machine.
Machine` / ``run_scheme`` / ``RunRequest`` (the CLI's ``--executor``),
else the ``REPRO_EXECUTOR`` environment variable, else ``sim``.
Executor choice can never change a
simulated cost, a wire buffer or a golden trace — only wall-clock
behaviour (the contract of ``tests/exec/test_differential.py``).
"""

from __future__ import annotations

import os
from typing import Any

__all__ = [
    "Executor",
    "available_executors",
    "current_executor_name",
    "get_executor",
    "register_executor",
]


class Executor:
    """Abstract executor: a factory for rank-task sessions.

    A *session* serves one machine for its lifetime and exposes:

    ``inline`` (attribute)
        True when tasks run in the coordinator at submit time.
    ``dispatch(phys_rank, task, ctx_rank, kwargs, refs, *, backend,
    count_kernels)``
        Start a task on the physical rank's worker; returns a handle.
    ``result(handle)``
        Block until that task's :class:`~repro.exec.tasks.TaskResult`.
    ``reset()`` / ``kill_rank(rank)`` / ``shutdown()``
        Lifecycle hooks driven by the machine (full reset, fail-stop
        death, teardown).
    """

    #: registry name ("sim" | "process")
    name: str = "abstract"

    def create_session(self, n_procs: int) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug nicety
        return f"<Executor {self.name!r}>"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Executor] = {}


def register_executor(executor: Executor) -> None:
    """Register an executor under ``executor.name`` (idempotent by name)."""
    _REGISTRY[executor.name] = executor


def _ensure_builtins() -> None:
    if "sim" not in _REGISTRY:
        from .sim import SimExecutor

        register_executor(SimExecutor())
    if "process" not in _REGISTRY:
        from .process import ProcessExecutor

        register_executor(ProcessExecutor())


def available_executors() -> tuple[str, ...]:
    """Names accepted by :func:`get_executor` / ``--executor``, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def get_executor(name: str) -> Executor:
    """Look an executor up by name; raise ``ValueError`` with the choices."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r} "
            f"(choose from {', '.join(sorted(_REGISTRY))})"
        ) from None


# ----------------------------------------------------------------------
# the default
# ----------------------------------------------------------------------
#: process default; the environment can pre-select the parallel backend
#: for an entire run (`REPRO_EXECUTOR=process pytest ...`)
_default_name: str = os.environ.get("REPRO_EXECUTOR", "sim")


def current_executor_name() -> str:
    """The executor name a machine without an explicit one resolves to."""
    return _default_name
