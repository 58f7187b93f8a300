"""Checkpoint/rollback for the iterative apps under mid-iteration deaths.

The apps' vectors live host-side, so a fail-stop death mid-SpMV never
loses numerical state: :class:`RecoveryRuntime` repairs the machine
(confirm → purge → redistribute from checkpoint → re-checkpoint) and the
interrupted multiply is simply replayed.  The answers must therefore be
*numerically identical* to a fault-free solve.
"""

import numpy as np
import pytest

from repro.apps import (
    distributed_cg,
    distributed_power_iteration,
    distributed_spmv,
    resilient_spmv,
    spd_system,
)
from repro.core import get_compression, get_partition, get_scheme
from repro.faults import FailStopSpec, FaultInjector, FaultSpec
from repro.machine import Machine, sp2_cost_model
from repro.recovery import CHECKPOINT_KEY, RecoveryRuntime, get_checkpoint
from repro.sparse import random_sparse


def distributed_machine(matrix, n_procs=4, *, scheme="ed", seed=0):
    """A machine holding ``matrix`` distributed over ``n_procs`` ranks,
    with a (quiet) fail-stop injector attached so deaths can be scripted
    via ``machine.faults.kill_rank``."""
    spec = FaultSpec(fail_stop=FailStopSpec(detect_after=2))
    machine = Machine(
        n_procs, cost=sp2_cost_model(), faults=FaultInjector(spec, seed=seed)
    )
    plan = get_partition("row").plan(matrix.shape, n_procs)
    get_scheme(scheme).run(machine, matrix, plan, get_compression("crs"))
    return machine, plan


class TestResilientSpmv:
    def test_multiply_survives_scripted_death(self):
        matrix = random_sparse((32, 32), 0.2, seed=3)
        machine, plan = distributed_machine(matrix)
        runtime = RecoveryRuntime(machine, plan, "crs")
        x = np.arange(1.0, 33.0)
        machine.faults.kill_rank(2)
        y = resilient_spmv(runtime, x)
        np.testing.assert_allclose(y, matrix.to_dense() @ x)
        assert runtime.rollbacks == 1
        assert machine.membership.dead == [2]
        assert runtime.plan.n_procs == 3

    def test_repaired_machine_keeps_working(self):
        matrix = random_sparse((24, 24), 0.25, seed=5)
        machine, plan = distributed_machine(matrix)
        runtime = RecoveryRuntime(machine, plan, "crs")
        machine.faults.kill_rank(1)
        x = np.ones(24)
        first = resilient_spmv(runtime, x)
        # post-repair multiplies go through the remapped machine faultlessly
        second = distributed_spmv(runtime.machine, runtime.plan, x)
        np.testing.assert_allclose(first, second)
        assert runtime.rollbacks == 1

    def test_sequential_deaths_roll_back_twice(self):
        matrix = random_sparse((30, 30), 0.2, seed=7)
        machine, plan = distributed_machine(matrix, n_procs=5)
        runtime = RecoveryRuntime(machine, plan, "crs")
        x = np.linspace(0.0, 1.0, 30)
        machine.faults.kill_rank(0)
        y1 = resilient_spmv(runtime, x)
        machine.faults.kill_rank(3)
        y2 = resilient_spmv(runtime, x)
        np.testing.assert_allclose(y1, matrix.to_dense() @ x)
        np.testing.assert_allclose(y2, y1)
        assert runtime.rollbacks == 2
        assert machine.membership.dead == [0, 3]
        assert runtime.plan.n_procs == 3

    def test_checkpoint_is_refreshed_under_new_plan(self):
        matrix = random_sparse((24, 24), 0.2, seed=9)
        machine, plan = distributed_machine(matrix)
        runtime = RecoveryRuntime(machine, plan, "crs")
        before = get_checkpoint(machine)
        assert before["plan"].n_procs == 4
        machine.faults.kill_rank(2)
        resilient_spmv(runtime, np.ones(24))
        after = get_checkpoint(machine)
        assert after["plan"].n_procs == 3
        assert after["epoch"] == machine.membership.epoch
        assert set(after["blocks"]) == {0, 1, 2}  # virtual survivor ranks
        assert CHECKPOINT_KEY in machine.host_memory

    def test_runtime_summary_reports_rollback(self):
        matrix = random_sparse((24, 24), 0.2, seed=11)
        machine, plan = distributed_machine(matrix)
        runtime = RecoveryRuntime(machine, plan, "crs")
        machine.faults.kill_rank(1)
        resilient_spmv(runtime, np.ones(24))
        rs = runtime.summary()
        assert rs.policy == "app-rollback"
        assert rs.failed_ranks == (1,)
        assert rs.rollbacks == 1
        assert rs.checkpoint_elements > 0
        assert rs.recovery_time_ms > 0


class TestIterativeSolvers:
    def test_cg_converges_to_fault_free_answer(self):
        A = spd_system(24, 0.1, seed=2)
        b = np.arange(1.0, 25.0)
        clean_machine, clean_plan = distributed_machine(A)
        clean = distributed_cg(clean_machine, clean_plan, b)

        machine, plan = distributed_machine(A)
        runtime = RecoveryRuntime(machine, plan, "crs")
        machine.faults.kill_rank(3)
        solved = distributed_cg(machine, plan, b, recovery=runtime)
        assert solved.converged
        assert solved.rollbacks == 1
        np.testing.assert_allclose(solved.x, clean.x, atol=1e-8)
        np.testing.assert_allclose(solved.x, np.linalg.solve(A.to_dense(), b),
                                   atol=1e-6)

    def test_power_iteration_finds_dominant_eigenpair(self):
        A = spd_system(20, 0.15, seed=4)
        machine, plan = distributed_machine(A)
        clean = distributed_power_iteration(machine, plan, seed=1)

        machine2, plan2 = distributed_machine(A)
        runtime = RecoveryRuntime(machine2, plan2, "crs")
        machine2.faults.kill_rank(0)
        recovered = distributed_power_iteration(
            machine2, plan2, seed=1, recovery=runtime
        )
        assert recovered.converged
        assert recovered.rollbacks == 1
        assert recovered.eigenvalue == pytest.approx(clean.eigenvalue)
        top = float(np.max(np.linalg.eigvalsh(A.to_dense())))
        assert recovered.eigenvalue == pytest.approx(top, rel=1e-6)

    def test_recovery_bound_to_wrong_machine_rejected(self):
        A = spd_system(16, 0.15, seed=6)
        machine, plan = distributed_machine(A)
        other_machine, other_plan = distributed_machine(A)
        runtime = RecoveryRuntime(other_machine, other_plan, "crs")
        with pytest.raises(ValueError, match="different machine"):
            distributed_cg(machine, plan, np.ones(16), recovery=runtime)
        with pytest.raises(ValueError, match="different machine"):
            distributed_power_iteration(machine, plan, recovery=runtime)

    def test_no_failure_means_no_rollbacks(self):
        A = spd_system(16, 0.15, seed=8)
        machine, plan = distributed_machine(A)
        runtime = RecoveryRuntime(machine, plan, "crs")
        result = distributed_cg(machine, plan, np.ones(16), recovery=runtime)
        assert result.converged and result.rollbacks == 0
        assert runtime.rollbacks == 0
