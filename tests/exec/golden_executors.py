"""Shared config/runner for the executor golden-trace fixture.

Used by ``tests/exec/test_golden_executors.py`` (replay + compare) and
``scripts/refresh_golden_fixtures.py`` (regenerate / ``--check``).  Kept
out of the test module so the refresh script can import it without
pulling in pytest.

The fixture pins, for a grid of scheme × partition × compression cells
with faults off and on, the full machine trace and phase times.  Both
executors must replay every entry exactly — the cross-session regression
net over the executor byte-identity contract, the sibling of
``tests/kernels/golden_backends.py`` for the execution tier.

The fail-stop cells run through the recovery layer (``host-resend``,
``peer-redistribute`` with a second death while the survivors absorb the
lost blocks, and an app-level ``resilient_spmv`` rollback) and also pin
the recovery report, the surviving roster size and a digest of the
recovered local arrays.

The redistribution cells distribute with ED onto a source partition, then
:func:`~repro.core.redistribute` the array onto a target partition, and
pin the whole trace with the redistribution's totals.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.apps import resilient_spmv
from repro.core import get_compression, get_partition, get_scheme, redistribute
from repro.core.base import LOCAL_KEY
from repro.faults import FailStopSpec, FaultInjector, FaultSpec
from repro.machine import Machine, sp2_cost_model, trace_to_dict
from repro.partition import BlockCyclicRowPartition
from repro.recovery import RecoveryRuntime, run_with_recovery
from repro.sparse import random_sparse

FIXTURE = Path(__file__).resolve().parents[1] / "faults" / "fixtures" / (
    "golden_traces_executors.json"
)

#: seed for the lossy injector runs (drop/corrupt/duplicate/reorder all on)
LOSSY_SEED = 5

#: seed for the fail-stop injector runs
FAILSTOP_SEED = 11

#: (scheme, partition, compression, n, p, fault_tag); fault_tag is
#: "clean" (no injector), "lossy" (FaultSpec.lossy(0.2), seed above) or
#: one of the fail-stop recovery cells in FAILSTOP_TAGS
EXECUTOR_GOLDEN_CONFIGS = [
    ("sfc", "row", "crs", 80, 4, "clean"),
    ("cfs", "column", "ccs", 80, 4, "clean"),
    ("ed", "mesh2d", "crs", 60, 4, "clean"),
    ("sfc", "row", "crs", 80, 4, "lossy"),
    ("cfs", "column", "ccs", 80, 4, "lossy"),
    ("ed", "mesh2d", "crs", 60, 4, "lossy"),
    ("ed", "row", "crs", 60, 5, "host-resend"),
    ("cfs", "mesh2d", "crs", 60, 6, "peer-redistribute"),
    ("ed", "row", "crs", 48, 5, "app-rollback"),
]

#: fault tags that run through the recovery layer
FAILSTOP_TAGS = ("host-resend", "peer-redistribute", "app-rollback")


class LateDeathInjector(FaultInjector):
    """A fault injector that also kills ``victim`` on its ``on_accept``-th
    accepted frame.

    The peer-redistribute cell uses it to script a second death after the
    old plan completed: rank 1 is dead on arrival, the victim accepts its
    one old-plan frame and dies on its first ``recover`` frame, so the
    survivors re-absorb every block from the host checkpoints.
    """

    def __init__(self, spec: FaultSpec, seed: int, *, victim: int,
                 on_accept: int) -> None:
        super().__init__(spec, seed)
        self.victim = victim
        self.on_accept = on_accept
        self._victim_accepts = 0

    def reset(self) -> None:
        super().reset()
        self._victim_accepts = 0

    def record_accept(self, rank: int) -> None:
        super().record_accept(rank)
        if rank == self.victim:
            self._victim_accepts += 1
            if self._victim_accepts == self.on_accept:
                self.kill_rank(rank)


def failstop_injector(fault_tag: str) -> FaultInjector:
    """The fixed-seed injector of one fail-stop cell."""
    fail_stop = FailStopSpec(dead_ranks=(1, 3), detect_after=2)
    if fault_tag == "host-resend":
        # two deaths on arrival, with the transient faults mixed in
        spec = replace(FaultSpec.lossy(0.2), fail_stop=fail_stop)
        return FaultInjector(spec, seed=FAILSTOP_SEED)
    if fault_tag == "peer-redistribute":
        spec = FaultSpec(fail_stop=replace(fail_stop, dead_ranks=(1,)))
        return LateDeathInjector(spec, FAILSTOP_SEED, victim=4, on_accept=2)
    # app-rollback: a quiet injector; the cell scripts the death itself
    return FaultInjector(FaultSpec(fail_stop=replace(fail_stop, dead_ranks=())),
                         seed=FAILSTOP_SEED)


def locals_digest(locals_) -> str:
    """SHA-256 over every local's shape and RO/CO/VL bytes, in rank order."""
    h = hashlib.sha256()
    for comp in locals_:
        h.update(repr(tuple(comp.shape)).encode())
        for arr in (comp.indptr, comp.indices, comp.values):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


#: (source partition, target partition, compression, n, p, fault_tag);
#: fault_tag is "clean" or "lossy".  mesh2d -> bcrow2 has a non-contiguous
#: target, and rank 6 keeps none of its nonzeros, so it stages an empty
#: self-message; the lossy cell pins the receive that charges no verify.
REDISTRIBUTE_GOLDEN_CONFIGS = [
    ("row", "mesh2d", "crs", 60, 4, "clean"),
    ("mesh2d", "bcrow2", "crs", 40, 8, "clean"),
    ("row", "column", "crs", 60, 4, "lossy"),
]


def config_key(scheme, partition, compression, n, p, fault_tag) -> str:
    return f"{scheme}-{partition}-{compression}-n{n}-p{p}-{fault_tag}"


def redistribute_key(source, target, compression, n, p, fault_tag) -> str:
    return f"redistribute-{source}-{target}-{compression}-n{n}-p{p}-{fault_tag}"


def _partition(name):
    return BlockCyclicRowPartition(2) if name == "bcrow2" else get_partition(name)


def run_executor_config(scheme, partition, compression, n, p, fault_tag,
                        *, executor=None):
    """Run one fixture cell; ``executor`` selects where rank tasks run."""
    matrix = random_sparse((n, n), 0.1, seed=2002 + n + 131 * p)
    if fault_tag in FAILSTOP_TAGS:
        return _run_failstop_config(scheme, partition, compression, matrix,
                                    p, fault_tag, executor=executor)
    plan = get_partition(partition).plan(matrix.shape, p)
    injector = (
        FaultInjector(FaultSpec.lossy(0.2), seed=LOSSY_SEED)
        if fault_tag == "lossy"
        else None
    )
    machine = Machine(
        p, cost=sp2_cost_model(), faults=injector, executor=executor
    )
    try:
        result = get_scheme(scheme).run(
            machine, matrix, plan, get_compression(compression)
        )
        return machine, result, trace_to_dict(machine.trace)
    finally:
        machine.shutdown()


def _run_failstop_config(scheme, partition, compression, matrix, p,
                         fault_tag, *, executor=None):
    """A recovery cell: the scheme (and, for app-rollback, a multiply that
    loses rank 2 mid-iteration) on a fail-stop machine."""
    machine = Machine(
        p, cost=sp2_cost_model(), faults=failstop_injector(fault_tag),
        executor=executor,
    )
    try:
        if fault_tag != "app-rollback":
            result = run_with_recovery(
                scheme, machine, matrix, partition, compression,
                policy=fault_tag,
            )
            return machine, result, trace_to_dict(machine.trace)
        plan = get_partition(partition).plan(matrix.shape, p)
        result = get_scheme(scheme).run(
            machine, matrix, plan, get_compression(compression)
        )
        runtime = RecoveryRuntime(machine, plan, compression)
        machine.faults.kill_rank(2)
        x = np.linspace(-1.0, 1.0, matrix.shape[1])
        resilient_spmv(runtime, x)
        locals_ = [
            runtime.machine.processor(a.rank).load(LOCAL_KEY)
            for a in runtime.plan
        ]
        result = replace(
            result,
            n_procs=runtime.plan.n_procs,
            locals_=tuple(locals_),
            fault_summary=machine.fault_summary(),
            recovery_summary=runtime.summary(),
        )
        return machine, result, trace_to_dict(machine.trace)
    finally:
        machine.shutdown()


def entry_for(config, *, executor=None) -> dict:
    """The JSON entry one fixture cell pins."""
    machine, result, trace = run_executor_config(*config, executor=executor)
    entry = {
        "t_distribution": result.t_distribution,
        "t_compression": result.t_compression,
        "fault_summary": result.fault_summary,
        "trace": trace,
    }
    if config[-1] in FAILSTOP_TAGS:
        entry["recovery_summary"] = result.recovery_summary.to_dict()
        entry["n_procs"] = result.n_procs
        entry["locals_digest"] = locals_digest(result.locals_)
    return entry


def redistribute_entry(config, *, executor=None) -> dict:
    """The JSON entry one redistribution cell pins."""
    source, target, compression, n, p, fault_tag = config
    matrix = random_sparse((n, n), 0.1, seed=2002 + n + 131 * p)
    injector = (
        FaultInjector(FaultSpec.lossy(0.2), seed=LOSSY_SEED)
        if fault_tag == "lossy"
        else None
    )
    machine = Machine(
        p, cost=sp2_cost_model(), faults=injector, executor=executor
    )
    try:
        old = _partition(source).plan(matrix.shape, p)
        new = _partition(target).plan(matrix.shape, p)
        kind = get_compression(compression)
        get_scheme("ed").run(machine, matrix, old, kind)
        result = redistribute(machine, old, new, kind)
        return {
            "t_redistribution": result.t_redistribution,
            "messages": result.messages,
            "elements_moved": result.elements_moved,
            "fault_summary": machine.fault_summary(),
            "locals_digest": locals_digest(result.locals_),
            "trace": trace_to_dict(machine.trace),
        }
    finally:
        machine.shutdown()


def generate_fixture(*, executor=None) -> dict:
    """All cells, keyed by :func:`config_key` and :func:`redistribute_key`."""
    fixture = {
        config_key(*config): entry_for(config, executor=executor)
        for config in EXECUTOR_GOLDEN_CONFIGS
    }
    for config in REDISTRIBUTE_GOLDEN_CONFIGS:
        fixture[redistribute_key(*config)] = redistribute_entry(
            config, executor=executor
        )
    return fixture
