"""OS-level chaos battery: random ``SIGKILL``/``SIGSTOP`` under supervision.

Opt-in via ``-m oschaos`` (the CI ``oschaos`` job runs it with fixed
seeds).  A deterministic chaos hook rides every supervised dispatch and
randomly signals the addressed worker; the assertions are the ISSUE's
acceptance criteria:

* every cell of the scheme × partition × compression grid completes with
  results **byte-identical** to the inline ``sim`` executor — costs,
  trace events, wire bytes, compressed local arrays;
* zero orphaned worker processes (checked by the autouse conftest
  reaper after every test);
* retry-budget exhaustion *degrades* the rank onto the inline simulator
  instead of raising.
"""

from __future__ import annotations

import os
import random
import signal
from contextlib import contextmanager

import pytest

from repro.core import get_compression, get_partition, get_scheme
from repro.exec import SuperviseSpec, use_supervision
from repro.exec.supervise import SupervisedSession
from repro.machine import Machine, result_to_dict, trace_to_dict
from repro.sparse import random_sparse

pytestmark = pytest.mark.oschaos

SCHEMES = ("sfc", "cfs", "ed")
PARTITIONS = ("row", "column", "mesh2d")
COMPRESSIONS = ("crs", "ccs")

#: generous budget: every chaos kill consumes one restart from the rank
CHAOS_SPEC = SuperviseSpec(
    task_timeout_s=30.0, max_restarts=16, backoff_s=0.01, max_backoff_s=0.05
)


@contextmanager
def chaos_hook(seed, *, kill_prob=0.35, sig=signal.SIGKILL):
    """Deterministically signal workers right after supervised dispatches.

    Patches :meth:`SupervisedSession.dispatch` so each dispatch may (per
    the seeded RNG) deliver ``sig`` to the worker it just addressed —
    mid-task from the worker's point of view.  Restores on exit.
    """
    rng = random.Random(seed)
    original = SupervisedSession.dispatch

    def chaotic(self, rank, task, ctx_rank, kwargs, refs, *, backend, count_kernels):
        handle = original(
            self, rank, task, ctx_rank, kwargs, refs,
            backend=backend, count_kernels=count_kernels,
        )
        pid = self.inner.worker_pid(rank)
        if pid is not None and rng.random() < kill_prob:
            os.kill(pid, sig)
        return handle

    SupervisedSession.dispatch = chaotic
    try:
        yield rng
    finally:
        SupervisedSession.dispatch = original


def run_cell(scheme, partition, compression, executor, *, n=60, p=4, spec=None):
    """One full scheme run; returns every comparable artefact + summary."""
    matrix = random_sparse((n, n), 0.1, seed=777 + n)
    plan = get_partition(partition).plan(matrix.shape, p)
    machine = Machine(p, executor=executor)
    try:
        # session creation is lazy: the scope must cover the run itself
        with use_supervision(spec):
            result = get_scheme(scheme).run(
                machine, matrix, plan, get_compression(compression)
            )
        summary = machine.supervisor_summary()
        exported = result_to_dict(result)
        exported.pop("supervisor_summary", None)
        locals_bytes = [
            (l.indptr.tobytes(), l.indices.tobytes(), l.values.tobytes())
            for l in result.locals_
        ]
        return exported, locals_bytes, trace_to_dict(machine.trace), summary
    finally:
        machine.shutdown()


def assert_identical_with_faults(cell_sim, cell_chaos, *, require_faults=True):
    exported_sim, locals_sim, trace_sim, _ = cell_sim
    exported_chaos, locals_chaos, trace_chaos, summary = cell_chaos
    assert exported_chaos == exported_sim
    assert locals_chaos == locals_sim
    assert trace_chaos == trace_sim
    assert summary is not None
    if require_faults:
        assert not summary.clean, "chaos fired no faults — raise kill_prob"


@pytest.mark.parametrize("compression", COMPRESSIONS)
@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_sigkill_grid_byte_identity(scheme, partition, compression):
    baseline = run_cell(scheme, partition, compression, "sim")
    seed = sum(ord(c) for c in f"{scheme}/{partition}/{compression}")
    with chaos_hook(20020808 + seed):
        chaos = run_cell(
            scheme, partition, compression, "process", spec=CHAOS_SPEC
        )
    # small-n envelopes are quick: a kill may land between envelopes
    # and heal silently, so only identity is unconditional here
    assert_identical_with_faults(baseline, chaos, require_faults=False)


def test_sigkill_large_cell_heals_array_frames():
    """n=200 dense blocks (80 KB a rank) ride as out-of-band array buffers.

    kill_prob=1 lands a SIGKILL mid-compress on every first attempt;
    replays go through ``inner.dispatch`` directly, so each rank heals
    after exactly one crash.
    """
    baseline = run_cell("sfc", "row", "crs", "sim", n=200)
    with chaos_hook(987, kill_prob=1.0):
        chaos = run_cell("sfc", "row", "crs", "process", n=200, spec=CHAOS_SPEC)
    assert_identical_with_faults(baseline, chaos)
    summary = chaos[3]
    assert summary.crashes >= 1 and summary.restarts >= 1


def test_sigstop_hangs_are_healed_by_the_watchdog():
    """Stopped workers blow the deadline, get killed, and are replayed."""
    spec = SuperviseSpec(
        task_timeout_s=1.0, max_restarts=16, backoff_s=0.01, max_backoff_s=0.05
    )
    baseline = run_cell("cfs", "row", "crs", "sim", n=120)
    with chaos_hook(4242, kill_prob=0.4, sig=signal.SIGSTOP):
        chaos = run_cell("cfs", "row", "crs", "process", n=120, spec=spec)
    assert_identical_with_faults(baseline, chaos)
    summary = chaos[3]
    assert summary.hangs >= 1


def test_budget_exhaustion_degrades_instead_of_raising():
    """kill_prob=1 with a zero budget drains every rank onto sim."""
    spec = SuperviseSpec(task_timeout_s=30.0, max_restarts=0, backoff_s=0.0)
    baseline = run_cell("ed", "row", "crs", "sim", n=120)
    with chaos_hook(7, kill_prob=1.0):
        chaos = run_cell("ed", "row", "crs", "process", n=120, spec=spec)
    assert_identical_with_faults(baseline, chaos)
    summary = chaos[3]
    assert summary.downgrades >= 1
    assert summary.restarts == 0
    assert summary.degraded_ranks  # and the run still completed, identically


def test_mixed_signals_over_repeated_runs_stay_identical():
    """Several seeds over one cell: healing never accumulates drift."""
    baseline = run_cell("sfc", "mesh2d", "ccs", "sim")
    for seed in (1, 2, 3):
        sig = signal.SIGSTOP if seed == 2 else signal.SIGKILL
        spec = CHAOS_SPEC if sig == signal.SIGKILL else SuperviseSpec(
            task_timeout_s=1.0, max_restarts=16, backoff_s=0.01,
            max_backoff_s=0.05,
        )
        with chaos_hook(seed, kill_prob=0.5, sig=sig):
            chaos = run_cell("sfc", "mesh2d", "ccs", "process", spec=spec)
        assert_identical_with_faults(baseline, chaos, require_faults=False)
