"""The two contracts of the observability layer.

1. **Byte transparency** — running with a recorder attached changes no
   simulated time, no wire traffic, no cost charge and no local array:
   the ledger (and therefore the golden fixtures) is identical whether
   or not anyone is watching.
2. **No drift** — with the recorder on, every metric total equals the
   TraceLog breakdown it mirrors, on every scheme x partition x
   compression cell, in fault mode, and through both recovery policies.
   (``DistributionScheme._result`` also auto-verifies on every observed
   run, so these greens double as end-to-end checks of that hook.)
"""

import pytest

from repro.faults import FailStopSpec, FaultSpec
from repro.machine import trace_to_dict
from repro.obs import Observability
from repro.runtime import run_scheme
from repro.sparse import random_sparse

SCHEMES = ["sfc", "cfs", "ed"]
PARTITIONS = ["row", "column", "mesh2d"]
COMPRESSIONS = ["crs", "ccs"]


@pytest.fixture(scope="module")
def matrix():
    return random_sparse((48, 48), 0.12, seed=11)


def _assert_equivalent(plain, observed):
    assert observed.t_distribution == plain.t_distribution
    assert observed.t_compression == plain.t_compression
    assert observed.wire_elements == plain.wire_elements
    assert observed.n_messages == plain.n_messages
    for a, b in zip(plain.locals_, observed.locals_):
        assert a.shape == b.shape and a.nnz == b.nnz
        assert (a.indptr == b.indptr).all()
        assert (a.indices == b.indices).all()
        assert (a.values == b.values).all()


@pytest.mark.parametrize("compression", COMPRESSIONS)
@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_grid_transparent_and_drift_free(matrix, scheme, partition, compression):
    plain = run_scheme(
        scheme, matrix, partition=partition, n_procs=4, compression=compression
    )
    obs = Observability()
    observed = run_scheme(
        scheme, matrix, partition=partition, n_procs=4,
        compression=compression, obs=obs,
    )
    _assert_equivalent(plain, observed)
    # _result auto-verified already; re-check the snapshot landed
    assert observed.observability is not None
    assert plain.observability is None
    snap = observed.observability
    assert snap.meta["scheme"] == scheme
    assert snap.meta["partition"] == partition
    assert snap.meta["compression"] == compression
    # the comm matrix totals the distribution wire traffic exactly
    total_wire = sum(
        v for row in snap.comm_matrix.values() for v in row.values()
    )
    assert total_wire == observed.wire_elements
    assert snap.n_events > 0 and snap.n_spans > 0


def test_fault_mode_transparent_and_counted(matrix):
    spec = FaultSpec(drop=0.2, duplicate=0.1, corrupt=0.05)
    plain = run_scheme(
        "ed", matrix, n_procs=4, faults=spec, fault_seed=7
    )
    obs = Observability()
    observed = run_scheme(
        "ed", matrix, n_procs=4, faults=spec, fault_seed=7, obs=obs
    )
    _assert_equivalent(plain, observed)
    assert observed.fault_summary == plain.fault_summary
    m = obs.all_metrics()
    assert m.total("repro_retries_total") > 0
    assert m.total("repro_faults_total") > 0
    # dedup drops only count duplicate-labelled fault observations
    assert m.total("repro_dedup_drops_total") == m.total(
        "repro_faults_total", label="duplicate"
    )


@pytest.mark.parametrize("policy", ["host-resend", "peer-redistribute"])
def test_recovery_transparent_and_counted(matrix, policy):
    spec = FaultSpec(fail_stop=FailStopSpec(dead_ranks=(2,), after_accepts=1))
    kwargs = dict(n_procs=4, faults=spec, fault_seed=3, recovery=policy)
    plain = run_scheme("ed", matrix, **kwargs)
    obs = Observability()
    observed = run_scheme("ed", matrix, **kwargs, obs=obs)
    assert observed.t_total == plain.t_total
    assert observed.recovery_summary.to_dict() == plain.recovery_summary.to_dict()
    m = obs.metrics
    assert m.total("repro_recovery_rounds_total", policy=policy) >= 1
    assert m.total("repro_detections_total") >= 1
    if policy == "peer-redistribute":
        assert m.total("repro_checkpoint_elements_total") > 0


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_kernel_calls_counted_per_backend(matrix, backend):
    obs = Observability()
    run_scheme("ed", matrix, n_procs=4, backend=backend, obs=obs)
    calls = obs.metrics.total("repro_kernel_calls_total", backend=backend)
    assert calls > 0
    # nothing attributed to the other backend
    other = "python" if backend == "numpy" else "numpy"
    assert obs.metrics.total("repro_kernel_calls_total", backend=other) == 0


def test_trace_serialisation_unchanged_by_observation(matrix):
    """trace_to_dict of an observed machine == of an unobserved one."""
    from repro.core import get_compression, get_scheme
    from repro.machine import Machine
    from repro.partition import RowPartition

    plan = RowPartition().plan(matrix.shape, 4)

    def run(obs):
        machine = Machine(4, obs=obs)
        get_scheme("cfs").run(machine, matrix, plan, get_compression("crs"))
        return trace_to_dict(machine.trace)

    assert run(None) == run(Observability())


def test_elements_compressed_matches_global_nnz(matrix):
    for scheme in SCHEMES:
        obs = Observability()
        result = run_scheme(scheme, matrix, n_procs=4, obs=obs)
        assert obs.metrics.total(
            "repro_elements_compressed_total", scheme=scheme
        ) == result.global_nnz
