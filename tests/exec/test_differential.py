"""Differential battery: ``process`` executor vs the ``sim`` baseline.

The executor contract (DESIGN.md §"Execution tiers") is byte-identity:
running rank tasks in real OS processes must leave *no trace* in any
observable output — simulated phase times, the full machine event ledger,
wire bytes, compressed local arrays, fault/recovery summaries, and the
JSON exporters must all match the inline simulator exactly.  Every test
here runs the same configuration under both executors and compares the
complete artefact set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.spmv import distributed_spmv, distributed_spmv_transpose
from repro.core import get_compression, get_partition, get_scheme
from repro.faults import FaultInjector, FaultSpec
from repro.faults.spec import FailStopSpec
from repro.machine import (
    Machine,
    result_to_dict,
    sp2_cost_model,
    trace_to_dict,
)
from repro.obs import Observability
from repro.runtime import run_scheme
from repro.sparse import random_sparse

SCHEMES = ("sfc", "cfs", "ed")
PARTITIONS = ("row", "column", "mesh2d")
COMPRESSIONS = ("crs", "ccs")


def locals_bytes(result):
    """The compressed locals' exact array bytes, rank by rank."""
    return [
        (l.indptr.tobytes(), l.indices.tobytes(), l.values.tobytes())
        for l in result.locals_
    ]


def run_cell(scheme, partition, compression, executor, *, n=60, p=4,
             fault=False, spmv=False, obs=None):
    """One full run; returns every comparable artefact as a tuple."""
    matrix = random_sparse((n, n), 0.1, seed=2002 + n)
    plan = get_partition(partition).plan(matrix.shape, p)
    injector = (
        FaultInjector(FaultSpec.lossy(0.2), seed=5) if fault else None
    )
    machine = Machine(
        p, cost=sp2_cost_model(), faults=injector,
        executor=executor, obs=obs,
    )
    try:
        result = get_scheme(scheme).run(
            machine, matrix, plan, get_compression(compression)
        )
        artefacts = [
            trace_to_dict(machine.trace),
            result_to_dict(result),
            locals_bytes(result),
        ]
        if spmv:
            x = np.arange(n, dtype=np.float64)
            artefacts.append(distributed_spmv(machine, plan, x).tobytes())
            artefacts.append(
                distributed_spmv_transpose(machine, plan, x).tobytes()
            )
        return artefacts
    finally:
        machine.shutdown()


@pytest.mark.parametrize("compression", COMPRESSIONS)
@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_clean_grid_byte_identical(scheme, partition, compression):
    """Full scheme × partition × compression grid, faults off."""
    sim = run_cell(scheme, partition, compression, "sim")
    proc = run_cell(scheme, partition, compression, "process")
    assert sim == proc


@pytest.mark.parametrize(
    "scheme, partition, compression",
    [
        ("sfc", "row", "crs"),
        ("cfs", "column", "ccs"),
        ("cfs", "row", "crs"),
        ("ed", "mesh2d", "crs"),
        ("ed", "row", "ccs"),
    ],
)
def test_lossy_grid_byte_identical(scheme, partition, compression):
    """Drop/duplicate/reorder/corrupt faults: identical retries, charges
    and fault summaries under real processes."""
    sim = run_cell(scheme, partition, compression, "sim", fault=True)
    proc = run_cell(scheme, partition, compression, "process", fault=True)
    assert sim == proc


@pytest.mark.parametrize("scheme", SCHEMES)
def test_spmv_byte_identical(scheme):
    """Distribute-then-compute: the partial products computed in worker
    processes assemble to the exact same y = A·x and y = Aᵀ·x bytes."""
    sim = run_cell(scheme, "row", "crs", "sim", spmv=True)
    proc = run_cell(scheme, "row", "crs", "process", spmv=True)
    assert sim == proc


@pytest.mark.parametrize("policy", ["host-resend", "peer-redistribute"])
@pytest.mark.parametrize("scheme", ["cfs", "ed"])
def test_recovery_byte_identical(scheme, policy):
    """Fail-stop death mid-distribution, repaired by both policies: the
    degraded re-runs and recovery summaries match the simulator."""
    spec = FaultSpec(
        fail_stop=FailStopSpec(dead_ranks=(1,), after_accepts=2)
    )
    outs = []
    for executor in ("sim", "process"):
        matrix = random_sparse((60, 60), 0.1, seed=7)
        result = run_scheme(
            scheme, matrix, partition="row", n_procs=4,
            faults=spec, fault_seed=3, recovery=policy, executor=executor,
        )
        outs.append((result_to_dict(result), locals_bytes(result)))
    assert outs[0] == outs[1]


def test_obs_snapshot_identical():
    """Spans, metrics and kernel-call counters merged back from worker
    processes reproduce the inline observability snapshot (wall-clock
    span durations excepted — they are real time, not simulated)."""
    snaps = []
    for executor in ("sim", "process"):
        obs = Observability(enabled=True)
        run_cell("cfs", "row", "crs", executor, obs=obs)
        snaps.append(obs.snapshot().to_dict())

    def strip_wall(snap):
        def scrub(node):
            if isinstance(node, dict):
                return {
                    k: scrub(v)
                    for k, v in node.items()
                    if k != "wall_elapsed_s"
                }
            if isinstance(node, list):
                return [scrub(v) for v in node]
            return node

        return scrub(snap)

    assert strip_wall(snaps[0]) == strip_wall(snaps[1])


def test_error_positions_identical():
    """A task-level error (corrupt frame surviving to the receiver) must
    carry the same message and leave the same trace under both executors.

    The reliable-delivery protocol normally retries corruption away, so
    the delivered frame is tampered with directly — the one case where
    the receiver-side CRC check fires.
    """
    from repro.faults import CorruptFrameError
    from repro.machine.trace import Phase

    outs = []
    for executor in ("sim", "process"):
        machine = Machine(
            2, cost=sp2_cost_model(),
            faults=FaultInjector(FaultSpec.lossy(0.0), seed=1),
            executor=executor,
        )
        try:
            block = np.arange(16, dtype=np.float64).reshape(4, 4)
            machine.send(0, block, 16, Phase.DISTRIBUTION, tag="dense-block")
            machine.procs[0].mailbox[0].payload[0, 0] += 1.0  # break the CRC
            pool = machine.rank_pool()
            pool.submit(
                0, "sfc.compress", Phase.COMPRESSION,
                frame=pool.take_frame(0, "dense-block"), kind="crs",
            )
            with pytest.raises(CorruptFrameError) as excinfo:
                pool.result(0)
            outs.append((str(excinfo.value), trace_to_dict(machine.trace)))
        finally:
            machine.shutdown()
    assert outs[0] == outs[1]


def test_executor_selection_surfaces(monkeypatch):
    """All three selection surfaces agree: Machine kwarg, run_scheme
    kwarg, and the REPRO_EXECUTOR environment default."""
    from repro.exec import dispatch

    matrix = random_sparse((40, 40), 0.1, seed=3)
    base = run_scheme("ed", matrix, n_procs=4, executor="process")
    # the default REPRO_EXECUTOR seeds at import, as a process would see it
    monkeypatch.setattr(dispatch, "_default_name", "process")
    ambient = run_scheme("ed", matrix, n_procs=4)
    assert result_to_dict(base) == result_to_dict(ambient)


def test_unknown_executor_rejected():
    with pytest.raises(ValueError, match="unknown executor"):
        Machine(2, executor="bogus")
