"""Rank tasks: the receiver-side units of work an executor can run anywhere.

A *rank task* is a registered pure function — it sees only what the host
put in its envelope (wire frames, conversion specs, cached store values)
and returns a value plus the :class:`Charge` list it wants recorded.  It
never touches the :class:`~repro.machine.machine.Machine`: the simulated
clock, the trace ledger and the fault machinery stay host-side, and the
coordinator replays each task's charges **in rank order** after the work
is done.  That replay is what makes the process executor byte-identical
to the simulated one: the trace is produced by the same ``charge_*``
calls in the same order regardless of where (or when, in wall-clock
terms) the arithmetic actually ran.

Tasks mirror the receiver loops of the schemes/apps exactly — same
kernels, same charge quantities, same error messages at the same stream
positions (see ``tests/exec/test_differential.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from ..faults.checksum import verify_frame
from ..machine.processor import Message
from ..machine.trace import Phase

__all__ = [
    "Charge",
    "ExecutorError",
    "PoisonFrame",
    "Ref",
    "TaskContext",
    "TaskResult",
    "get_task",
    "rank_task",
    "run_task",
]


class ExecutorError(RuntimeError):
    """Executor infrastructure failure (dead worker, broken pipe, ...).

    Never raised for *simulated* conditions — those surface as the exact
    exception the simulated executor would have raised.
    """


@dataclass(frozen=True)
class Charge:
    """One deferred ``charge_proc_ops`` call, replayed by the coordinator."""

    n_ops: int
    phase: Phase
    label: str


@dataclass(frozen=True)
class PoisonFrame:
    """A failed frame pop (dead rank / empty mailbox), deferred.

    Popping happens at ``submit`` time but the simulated executor raises
    receive errors at each rank's position in the *result* stream — after
    every earlier rank's charges.  The poison carries the exception to
    that exact position.
    """

    error: BaseException


@dataclass(frozen=True)
class Ref:
    """A by-name reference into a rank's processor store.

    The coordinator resolves it against the host-side
    :class:`~repro.machine.processor.Processor` memory (the source of
    truth) and ships the value to the worker only when the worker's
    cached copy is stale (see the session's version cache).
    """

    key: str


@dataclass(frozen=True)
class TaskResult:
    """What a rank task produced: value, deferred charges, or an error.

    ``error`` holds the exception a simulated run would have raised from
    this rank's receiver code; the coordinator replays ``charges`` first
    (the simulated receiver charges before it raises — e.g. the
    checksum-verify scan precedes a ``CorruptFrameError``) and then
    re-raises it at the rank's stream position.  ``kernel_calls`` are the
    ``(backend, kernel)`` dispatches observed in the worker, merged into
    the host's metrics on arrival.
    """

    value: Any = None
    charges: tuple[Charge, ...] = ()
    kernel_calls: tuple[tuple[str, str], ...] = ()
    wall_s: float = 0.0
    error: BaseException | None = None


class TaskContext:
    """Per-invocation context handed to a rank task."""

    def __init__(self, rank: int) -> None:
        #: the rank the task was submitted as (a *virtual* rank under a
        #: recovery view — task-level error messages use this one)
        self.rank = rank
        self.charges: list[Charge] = []

    def charge(self, n_ops: int, phase: Phase, label: str = "") -> None:
        """Defer one ``charge_proc_ops(rank, n_ops, phase, label)``."""
        self.charges.append(Charge(int(n_ops), phase, label))

    def open_frame(self, frame: Message, *, phase: Phase | None = None) -> Any:
        """Unwrap a frame exactly like ``Machine.receive`` would.

        A checksummed frame is re-verified against its wire image by the
        same :func:`~repro.faults.checksum.verify_frame`: one scan op per
        element, charged to ``phase`` when given, and the same
        ``CorruptFrameError`` (with the *physical* rank) on a mismatch.
        """
        verify_frame(frame, phase, self.charge)
        return frame.payload


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_TASKS: dict[str, Callable[..., Any]] = {}


def rank_task(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register ``fn`` as the rank task ``name`` (a decorator)."""

    def deco(fn: Callable[..., Any]) -> Callable[..., Any]:
        _TASKS[name] = fn
        return fn

    return deco


def get_task(name: str) -> Callable[..., Any]:
    try:
        return _TASKS[name]
    except KeyError:
        raise ValueError(
            f"unknown rank task {name!r} (choose from {', '.join(sorted(_TASKS))})"
        ) from None


def run_task(
    name: str,
    rank: int,
    kwargs: dict[str, Any],
    *,
    count_kernels: bool = False,
) -> TaskResult:
    """Execute one task invocation, capturing its outcome as a result.

    ``count_kernels`` installs a kernel-dispatch counting hook for the
    duration (worker processes only — inline execution already runs
    inside the machine's ambient observed kernel scope, so counting
    there again would double).  Exceptions from the task body are
    captured, *with* the charges made before the raise, never propagated.
    """
    fn = get_task(name)
    ctx = TaskContext(rank)
    calls: list[tuple[str, str]] = []
    start = time.perf_counter()
    try:
        if count_kernels:
            from ..kernels import observe_kernel_calls

            with observe_kernel_calls(lambda b, k: calls.append((b, k))):
                value = fn(ctx, **kwargs)
        else:
            value = fn(ctx, **kwargs)
    except Exception as err:
        return TaskResult(
            charges=tuple(ctx.charges),
            kernel_calls=tuple(calls),
            wall_s=time.perf_counter() - start,
            error=err,
        )
    return TaskResult(
        value=value,
        charges=tuple(ctx.charges),
        kernel_calls=tuple(calls),
        wall_s=time.perf_counter() - start,
    )


# ----------------------------------------------------------------------
# the scheme / app receiver tasks
# ----------------------------------------------------------------------
@rank_task("sfc.compress")
def _sfc_compress(ctx: TaskContext, frame: Message, kind: str) -> Any:
    """SFC receiver: compress the arrived dense block (CRS/CCS)."""
    from ..core.registry import get_compression

    dense = ctx.open_frame(frame, phase=Phase.DISTRIBUTION)
    compressed = get_compression(kind).from_dense(dense)
    ctx.charge(
        dense.size + 3 * compressed.nnz, Phase.COMPRESSION, "compress"
    )
    return compressed


@rank_task("cfs.unpack")
def _cfs_unpack(
    ctx: TaskContext,
    frame: Message,
    conv: Any,
    kind: str,
    local_shape: tuple[int, int],
) -> Any:
    """CFS receiver: unpack the RO/CO/VL buffer and localise CO."""
    from ..core.registry import get_compression

    buf = ctx.open_frame(frame, phase=Phase.DISTRIBUTION)
    arrays, unpack_ops = buf.unpack()
    ctx.charge(unpack_ops, Phase.DISTRIBUTION, "unpack")
    local_co = conv.to_local(arrays["CO"])
    if conv.ops_per_nonzero:
        ctx.charge(
            conv.ops_per_nonzero * len(local_co),
            Phase.DISTRIBUTION,
            "index-conversion",
        )
    return get_compression(kind)(
        local_shape, arrays["RO"], local_co, arrays["VL"]
    )


@rank_task("ed.decode")
def _ed_decode(ctx: TaskContext, frame: Message, conv: Any) -> Any:
    """ED receiver: decode the Figure-6 special buffer."""
    buf = ctx.open_frame(frame, phase=Phase.DISTRIBUTION)
    compressed, decode_ops = buf.decode(conv)
    ctx.charge(decode_ops, Phase.COMPRESSION, "decode")
    return compressed


@rank_task("spmv.partial")
def _spmv_partial(
    ctx: TaskContext,
    frame: Message,
    local: Any,
    expected_shape: tuple[int, int],
    transpose: bool,
) -> Any:
    """SpMV receiver: the local partial product over the stored array.

    The x-slice frame is checksum-verified but never charged (the
    simulated receive passes ``phase=None`` here).
    """
    from ..sparse.ops import spmv, spmv_transpose

    x_local = ctx.open_frame(frame)
    if local.shape != expected_shape:
        raise ValueError(
            f"rank {ctx.rank}: stored local array shape "
            f"{local.shape} does not match the plan {expected_shape}"
        )
    if transpose:
        y_local = spmv_transpose(local, x_local)
        ctx.charge(2 * local.nnz, Phase.COMPUTE, "spmv-T")
    else:
        y_local = spmv(local, x_local)
        ctx.charge(2 * local.nnz, Phase.COMPUTE, "spmv")
    return y_local


# ----------------------------------------------------------------------
# infrastructure tasks (benchmarks and tests)
# ----------------------------------------------------------------------
@rank_task("exec.echo")
def _echo(ctx: TaskContext, payload: Any = None) -> Any:
    """Return the payload unchanged (wire round-trip fidelity probe)."""
    return payload


@rank_task("exec.sleep")
def _sleep(ctx: TaskContext, seconds: float) -> float:
    """Block this rank for ``seconds`` of wall time.

    The communication-overlap cell of ``bench_parallel.py``: p ranks
    sleeping concurrently finish in ~1×``seconds`` under the process
    executor and p×``seconds`` inline — a compute-independent scaling
    probe that stays honest on single-core CI runners.
    """
    time.sleep(seconds)
    return seconds
