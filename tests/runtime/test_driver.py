"""Unit tests for the experiment driver."""

import pytest

from repro.machine import CostModel, RingTopology, unit_cost_model
from repro.partition import BinPackingRowPartition, Mesh2DPartition, RowPartition
from repro.runtime import RunRequest, RunSession, run_scheme
from repro.sparse import random_sparse


class TestRunScheme:
    def test_by_names(self, medium_matrix):
        result = run_scheme(
            "ed", medium_matrix, partition="column", n_procs=5, compression="ccs"
        )
        assert result.scheme == "ed"
        assert result.partition == "column"
        assert result.compression == "ccs"
        assert result.n_procs == 5

    def test_partition_object_accepted(self, medium_matrix):
        result = run_scheme(
            "sfc", medium_matrix, partition=Mesh2DPartition((2, 3)), n_procs=6
        )
        assert result.partition == "mesh2d"

    def test_plan_overrides_partition(self, medium_matrix):
        plan = BinPackingRowPartition(medium_matrix).plan(medium_matrix.shape, 3)
        result = run_scheme("cfs", medium_matrix, plan=plan, n_procs=99)
        assert result.n_procs == 3
        assert result.partition == "bin_packing_row"

    def test_custom_cost_model(self, medium_matrix):
        unit = run_scheme("ed", medium_matrix, cost=unit_cost_model())
        scaled = run_scheme(
            "ed", medium_matrix, cost=CostModel(2.0, 2.0, 2.0)
        )
        assert scaled.t_distribution == pytest.approx(2 * unit.t_distribution)

    def test_topology_passed_through(self, medium_matrix):
        switch = run_scheme("ed", medium_matrix, n_procs=4, cost=unit_cost_model())
        ring = run_scheme(
            "ed",
            medium_matrix,
            n_procs=4,
            cost=unit_cost_model(),
            topology=RingTopology(4),
        )
        assert ring.t_distribution > switch.t_distribution

    def test_unknown_names_rejected(self, medium_matrix):
        with pytest.raises(KeyError):
            run_scheme("brs", medium_matrix)
        with pytest.raises(KeyError):
            run_scheme("ed", medium_matrix, partition="hex")


class TestExperimentConfig:
    """The run description (:class:`RunRequest`) and its one-shot run."""

    def test_make_matrix_matches_spec(self):
        cfg = RunRequest(scheme="ed", n=50, n_procs=4, sparse_ratio=0.2, seed=1)
        m = RunSession().matrix_for(cfg)
        assert m.shape == (50, 50)
        assert m.nnz == round(0.2 * 2500)

    def test_matrix_deterministic(self):
        cfg = RunRequest(scheme="ed", n=30, n_procs=4, seed=5)
        assert RunSession().matrix_for(cfg) == RunSession().matrix_for(cfg)

    def test_partition_method_resolution(self):
        cfg = RunRequest(scheme="sfc", n=10, n_procs=4, partition="mesh2d",
                         mesh_shape=(4, 1))
        method = cfg.partition_method()
        assert isinstance(method, Mesh2DPartition)
        assert method.mesh_shape == (4, 1)

    def test_run_config_generates_matrix(self):
        cfg = RunRequest(scheme="cfs", n=24, n_procs=3)
        with RunSession() as session:
            result = session.run(cfg)
        assert result.global_shape == (24, 24)

    def test_run_config_accepts_shared_matrix(self):
        cfg = RunRequest(scheme="cfs", n=24, n_procs=3)
        shared = random_sparse((24, 24), 0.1, seed=77)
        with RunSession() as session:
            result = session.run(cfg, matrix=shared)
        assert result.global_nnz == shared.nnz
