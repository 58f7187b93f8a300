"""RunSession reuse equivalence and the sweep-vs-driver regression pin.

A sweep runs every cell of a grid through one warm
:class:`~repro.runtime.session.RunSession`, reusing matrices, partition
plans with their local arrays, and machines.  These tests pin that the
reuse is *observably identical* — per-cell results (times, wire bytes,
and the compressed local arrays element-for-element) match fresh
per-call runs on both executors — and that the cached plans stay
bounded and die with the session.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.machine.export import result_to_dict
from repro.obs import Observability
from repro.partition import RowPartition
from repro.runtime import RunRequest, RunSession, run_scheme
from repro.runtime.session import PLAN_CACHE_SIZE
from repro.sparse import random_sparse
from repro.sweep import canonical_json, paper_tables_manifest, run_sweep


def _assert_results_identical(a, b):
    assert canonical_json(result_to_dict(a)) == canonical_json(result_to_dict(b))
    assert len(a.locals_) == len(b.locals_)
    for la, lb in zip(a.locals_, b.locals_):
        assert type(la) is type(lb)
        for attr in ("RO", "CO", "VL", "indices"):
            va, vb = getattr(la, attr, None), getattr(lb, attr, None)
            assert (va is None) == (vb is None)
            if va is not None:
                np.testing.assert_array_equal(np.asarray(va), np.asarray(vb))


def _fresh(request):
    """A one-shot run: fresh machine, generated matrix."""
    with RunSession() as session:
        return session.run(request)


_GRID = [
    RunRequest(scheme=s, n=40, n_procs=4, partition=p, compression=c, seed=2042)
    for s in ("sfc", "cfs", "ed")
    for p in ("row", "column", "mesh2d")
    for c in ("crs", "ccs")
]


def _kept_locals(session):
    """Each cached plan's kept locals, by plan key."""
    return {key: plan._extracted[1] for key, plan in session._plans.items()}


@pytest.mark.parametrize("executor", ["sim", "process"])
def test_warm_session_equals_fresh_runs(executor):
    """Every scheme × partition × compression, twice in one session, with
    a same-shape sample of another seed between the passes."""
    configs = [replace(c, executor=executor) for c in _GRID]
    other = replace(configs[0], seed=configs[0].seed + 1)
    with RunSession() as session:
        first = [session.run(c) for c in configs]
        kept = _kept_locals(session)
        assert len(kept) == 3  # one plan per partition
        between = session.run(other)
        assert len(session._plans) == 4  # another sample: another plan
        second = [session.run(c) for c in configs]
        # the second pass re-extracted nothing: every plan kept its locals
        for key, locals_ in kept.items():
            assert _kept_locals(session)[key] is locals_
    _assert_results_identical(between, _fresh(other))
    for c, w1, w2 in zip(configs, first, second):
        cold = _fresh(c)
        _assert_results_identical(w1, cold)
        _assert_results_identical(w2, cold)


def _without_wall(obj):
    """``obj`` without its wall-clock entries (``wall_*`` keys)."""
    if isinstance(obj, dict):
        return {k: _without_wall(v) for k, v in obj.items() if not k.startswith("wall_")}
    if isinstance(obj, list):
        return [_without_wall(v) for v in obj]
    return obj


@pytest.mark.parametrize("scheme", ["sfc", "cfs", "ed"])
def test_observed_hit_equals_unobserved_miss(scheme):
    request = replace(_GRID[0], scheme=scheme, partition="mesh2d")

    def observe():
        return Observability(scheme=scheme, n=request.n, partition="mesh2d")

    with RunSession() as session:
        session.run(request)  # plans and extracts
        (plan,) = session._plans.values()
        kept = plan._extracted[1]
        hit = result_to_dict(session.run(request, obs=observe()))
        assert plan._extracted[1] is kept
    with RunSession() as session:
        observed_miss = result_to_dict(session.run(request, obs=observe()))
    miss = result_to_dict(_fresh(request))
    assert canonical_json({k: v for k, v in hit.items() if k != "observability"}) == (
        canonical_json(miss)
    )
    assert canonical_json(_without_wall(hit)) == canonical_json(
        _without_wall(observed_miss)
    )


def test_cached_plan_extracts_another_matrix_object_afresh():
    """The plan key hits, but the locals are kept per matrix object: a
    same-shape matrix passed in is extracted, not served old locals."""
    request = replace(_GRID[0], scheme="cfs", partition="column")
    other = random_sparse((request.n, request.n), 0.3, seed=77)
    with RunSession() as session:
        session.run(request)
        (plan,) = session._plans.values()
        warm = session.run(request, matrix=other)
        assert list(session._plans.values()) == [plan]
        assert plan._extracted[0]() is other
    fresh = run_scheme(
        "cfs", other, partition="column", n_procs=request.n_procs
    )
    assert canonical_json(result_to_dict(warm)) == canonical_json(
        result_to_dict(fresh)
    )


def test_plan_cache_is_bounded_and_evicts_before_it_builds(monkeypatch):
    sizes: list[int] = []
    plan = RowPartition.plan

    def recording(self, shape, n_procs):
        sizes.append(len(session._plans))
        return plan(self, shape, n_procs)

    monkeypatch.setattr(RowPartition, "plan", recording)
    requests = [
        RunRequest(scheme="cfs", n=12, n_procs=2, seed=seed)
        for seed in range(PLAN_CACHE_SIZE + 3)
    ]
    with RunSession() as session:
        for request in requests:
            session.run(request)
            assert len(session._plans) <= PLAN_CACHE_SIZE
        session.run(requests[-1])  # a hit builds nothing
        assert [key[2] for key in session._plans] == [
            r.seed for r in requests[-PLAN_CACHE_SIZE:]
        ]
    assert len(sizes) == len(requests)
    assert max(sizes) < PLAN_CACHE_SIZE


def test_close_lets_cached_locals_go():
    with RunSession() as session:
        session.run(_GRID[0])
        (plan,) = session._plans.values()
        local = weakref.ref(plan._extracted[1][0])
        del plan
    assert not session._plans
    gc.collect()
    assert local() is None


def test_machine_reuse_actually_happens():
    first = _GRID[0]
    twin = replace(first, scheme="cfs")
    with RunSession() as session:
        session.run(first)
        session.run(twin)
        assert len(session._machines) == 1  # one (p, cost, backend, exec) key
        # and the matrix cache holds one sample per (n, ratio, seed)
        assert len(session._matrices) == 1


def test_per_run_state_disables_reuse():
    from repro.faults import FaultSpec

    config = RunRequest(
        scheme="ed", n=32, n_procs=4, seed=9,
        faults=FaultSpec.lossy(0.05), fault_seed=1,
    )
    with RunSession() as session:
        session.run(config)
        assert session._machines == {}  # fault runs always get a fresh machine


def test_recovery_runs_leave_the_plan_cache_alone():
    """A recovery run re-plans from the request's method, so caching a plan
    for it would only take a slot from the clean runs."""
    from repro.faults import FailStopSpec, FaultSpec

    config = RunRequest(
        scheme="ed", n=32, n_procs=4, seed=9,
        faults=FaultSpec(fail_stop=FailStopSpec(dead_ranks=(1,))),
        recovery="host-resend",
    )
    with RunSession() as session:
        session.run(config)
        assert not session._plans


@pytest.mark.parametrize("executor", ["sim", "process"])
def test_sweep_matches_per_cell_driver_runs(tmp_path, executor):
    """Every record of a reduced paper-tables sweep equals a per-cell
    ``run_scheme`` on the cell's own matrix."""
    manifest = paper_tables_manifest(
        sizes=[32, 48], proc_counts=[4], mesh_sizes=[32], mesh_proc_counts=[4]
    )
    report = run_sweep(manifest, tmp_path / "store.jsonl", executor=executor)
    assert len(report.records) == len(manifest)
    with RunSession() as session:
        for cell, record in zip(manifest.expand(), report.records):
            fresh = run_scheme(
                cell.scheme, session.matrix_for(cell),
                partition=cell.partition_method(), n_procs=cell.n_procs,
                compression=cell.compression, executor=executor,
            )
            assert canonical_json(record["result"]) == canonical_json(
                result_to_dict(fresh)
            )


def test_closed_session_refuses_to_run():
    session = RunSession()
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.run(_GRID[0])
