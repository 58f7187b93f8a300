"""RunSession reuse equivalence and the sweep-vs-driver regression pin.

A sweep runs every cell of a grid through one warm
:class:`~repro.runtime.session.RunSession`, reusing matrices and
machines.  These tests pin that the reuse is *observably identical* —
per-cell results (times, wire bytes, and the compressed local arrays
element-for-element) match fresh per-call runs on both executors.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.machine.export import result_to_dict
from repro.runtime import RunRequest, RunSession, run_scheme
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
    RunRequest(scheme=s, n=n, n_procs=4, partition=p, seed=2002 + n)
    for s in ("sfc", "ed")
    for p in ("row", "column")
    for n in (32, 48)
]


@pytest.mark.parametrize("executor", ["sim", "process"])
def test_warm_session_equals_fresh_runs(executor):
    configs = [replace(c, executor=executor) for c in _GRID]
    with RunSession() as session:
        warm = [session.run(c) for c in configs]
    cold = [_fresh(c) for c in configs]
    for w, c in zip(warm, cold):
        _assert_results_identical(w, c)


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
