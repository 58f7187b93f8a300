"""Unit tests for sparse array redistribution (related work [3])."""

import numpy as np
import pytest

from repro.core import LOCAL_KEY, get_compression, get_scheme, redistribute
from repro.machine import HOST, Machine, Phase, unit_cost_model
from repro.partition import (
    BinPackingRowPartition,
    BlockCyclicRowPartition,
    ColumnPartition,
    Mesh2DPartition,
    RowPartition,
)
from repro.recovery import peer_redistribute
from repro.sparse import random_sparse

from ..partition.test_extract_all import HAND_BUILT


def distribute(matrix, plan, compression="crs"):
    machine = Machine(plan.n_procs, cost=unit_cost_model())
    get_scheme("ed").run(machine, matrix, plan, get_compression(compression))
    return machine


def assert_matches_direct(result, matrix, new_plan, compression="crs"):
    expected = [
        get_compression(compression).from_coo(a.extract_local(matrix))
        for a in new_plan
    ]
    for got, exp in zip(result.locals_, expected):
        assert got == exp


class TestCorrectness:
    @pytest.mark.parametrize(
        "target",
        [ColumnPartition(), Mesh2DPartition(), BlockCyclicRowPartition(3)],
    )
    def test_row_to_other(self, target, medium_matrix):
        old = RowPartition().plan(medium_matrix.shape, 4)
        new = target.plan(medium_matrix.shape, 4)
        machine = distribute(medium_matrix, old)
        result = redistribute(machine, old, new, get_compression("crs"))
        assert_matches_direct(result, medium_matrix, new)

    def test_mesh_to_row(self, medium_matrix):
        old = Mesh2DPartition().plan(medium_matrix.shape, 4)
        new = RowPartition().plan(medium_matrix.shape, 4)
        machine = distribute(medium_matrix, old)
        result = redistribute(machine, old, new, get_compression("crs"))
        assert_matches_direct(result, medium_matrix, new)

    def test_to_bin_packing(self, medium_matrix):
        old = RowPartition().plan(medium_matrix.shape, 4)
        new = BinPackingRowPartition(medium_matrix).plan(medium_matrix.shape, 4)
        machine = distribute(medium_matrix, old)
        result = redistribute(machine, old, new, get_compression("ccs"))
        assert_matches_direct(result, medium_matrix, new, "ccs")

    def test_identity_redistribution(self, medium_matrix):
        """Same plan in and out: no messages, contents unchanged."""
        plan = RowPartition().plan(medium_matrix.shape, 4)
        machine = distribute(medium_matrix, plan)
        result = redistribute(machine, plan, plan, get_compression("crs"))
        assert result.messages == 0
        assert_matches_direct(result, medium_matrix, plan)

    def test_chained_redistributions(self, medium_matrix):
        """row -> mesh -> column -> row returns to the original layout."""
        plans = [
            RowPartition().plan(medium_matrix.shape, 4),
            Mesh2DPartition().plan(medium_matrix.shape, 4),
            ColumnPartition().plan(medium_matrix.shape, 4),
            RowPartition().plan(medium_matrix.shape, 4),
        ]
        machine = distribute(medium_matrix, plans[0])
        for old, new in zip(plans, plans[1:]):
            result = redistribute(machine, old, new, get_compression("crs"))
        assert_matches_direct(result, medium_matrix, plans[-1])

    def test_compression_switch(self, medium_matrix):
        """Redistribution can change the compression method en route."""
        old = RowPartition().plan(medium_matrix.shape, 4)
        new = ColumnPartition().plan(medium_matrix.shape, 4)
        machine = distribute(medium_matrix, old, "crs")
        result = redistribute(machine, old, new, get_compression("ccs"))
        assert_matches_direct(result, medium_matrix, new, "ccs")

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    @pytest.mark.parametrize("density", [0.3, 1.0])
    def test_onto_hand_built_plans(self, name, density):
        """Targets that are not a uniform grid keep every nonzero."""
        new = HAND_BUILT[name]
        matrix = random_sparse(new.global_shape, density, seed=5)
        old = RowPartition().plan(matrix.shape, new.n_procs)
        machine = distribute(matrix, old)
        result = redistribute(machine, old, new, get_compression("crs"))
        assert_matches_direct(result, matrix, new)

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    @pytest.mark.parametrize("density", [0.3, 1.0])
    def test_peer_from_host_onto_hand_built_plans(self, name, density):
        new = HAND_BUILT[name]
        matrix = random_sparse(new.global_shape, density, seed=5)
        old = RowPartition().plan(matrix.shape, 3)
        crs = get_compression("crs")
        sources = {a.rank: (HOST, crs.from_coo(a.extract_local(matrix))) for a in old}
        machine = Machine(new.n_procs, cost=unit_cost_model())
        locals_ = peer_redistribute(machine, old, new, crs, sources=sources)
        assert locals_ == [crs.from_coo(a.extract_local(matrix)) for a in new]

    def test_empty_matrix(self):
        empty = random_sparse((12, 12), 0.0, seed=0)
        old = RowPartition().plan(empty.shape, 3)
        new = ColumnPartition().plan(empty.shape, 3)
        machine = distribute(empty, old)
        result = redistribute(machine, old, new, get_compression("crs"))
        assert all(l.nnz == 0 for l in result.locals_)


class TestAccounting:
    def test_elements_moved_bounded_by_3nnz(self, medium_matrix):
        old = RowPartition().plan(medium_matrix.shape, 4)
        new = ColumnPartition().plan(medium_matrix.shape, 4)
        machine = distribute(medium_matrix, old)
        machine.trace.clear()  # isolate the redistribution cost
        result = redistribute(machine, old, new, get_compression("crs"))
        assert result.elements_moved <= 3 * medium_matrix.nnz
        assert result.messages <= 4 * 3  # at most p*(p-1)

    def test_no_host_involvement(self, medium_matrix):
        old = RowPartition().plan(medium_matrix.shape, 4)
        new = Mesh2DPartition().plan(medium_matrix.shape, 4)
        machine = distribute(medium_matrix, old)
        machine.trace.clear()
        redistribute(machine, old, new, get_compression("crs"))
        bd = machine.trace.breakdown(Phase.DISTRIBUTION)
        assert bd.host_time == 0.0
        assert bd.max_proc_time > 0.0

    def test_local_data_stays_local(self, medium_matrix):
        """Cells already owned by their new owner are never transmitted."""
        old = RowPartition().plan(medium_matrix.shape, 4)
        machine = distribute(medium_matrix, old)
        machine.trace.clear()
        result = redistribute(machine, old, old, get_compression("crs"))
        assert result.elements_moved == 0

    def test_processor_memory_updated(self, medium_matrix):
        old = RowPartition().plan(medium_matrix.shape, 4)
        new = ColumnPartition().plan(medium_matrix.shape, 4)
        machine = distribute(medium_matrix, old)
        result = redistribute(machine, old, new, get_compression("crs"))
        for a, local in zip(new, result.locals_):
            assert machine.processor(a.rank).load(LOCAL_KEY) is local


class TestValidation:
    def test_shape_mismatch_rejected(self, medium_matrix):
        old = RowPartition().plan(medium_matrix.shape, 4)
        new = RowPartition().plan((30, 30), 4)
        machine = distribute(medium_matrix, old)
        with pytest.raises(ValueError, match="different arrays"):
            redistribute(machine, old, new, get_compression("crs"))

    def test_proc_count_mismatch_rejected(self, medium_matrix):
        old = RowPartition().plan(medium_matrix.shape, 4)
        new = RowPartition().plan(medium_matrix.shape, 5)
        machine = distribute(medium_matrix, old)
        with pytest.raises(ValueError, match="processor count"):
            redistribute(machine, old, new, get_compression("crs"))

    def test_requires_prior_distribution(self, medium_matrix):
        old = RowPartition().plan(medium_matrix.shape, 4)
        machine = Machine(4)
        with pytest.raises(KeyError):
            redistribute(machine, old, old, get_compression("crs"))
