"""Unit tests for partition plan infrastructure."""

import numpy as np
import pytest

from repro.partition import (
    BlockAssignment,
    PartitionPlan,
    RowPartition,
    balanced_block_sizes,
)
from repro.sparse import random_sparse


class TestBalancedBlockSizes:
    def test_even_split(self):
        assert balanced_block_sizes(12, 4) == [3, 3, 3, 3]

    def test_paper_figure2_split(self):
        """10 rows over 4 processors -> 3, 3, 2, 2 (Figure 2)."""
        assert balanced_block_sizes(10, 4) == [3, 3, 2, 2]

    def test_more_procs_than_items(self):
        assert balanced_block_sizes(2, 5) == [1, 1, 0, 0, 0]

    def test_sum_invariant(self):
        for n in (0, 1, 7, 100):
            for p in (1, 3, 8):
                assert sum(balanced_block_sizes(n, p)) == n

    def test_max_difference_one(self):
        sizes = balanced_block_sizes(17, 5)
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            balanced_block_sizes(5, 0)
        with pytest.raises(ValueError):
            balanced_block_sizes(-1, 2)


class TestBlockAssignment:
    def test_contiguity_detection(self):
        a = BlockAssignment(0, np.arange(3, 7), np.array([0, 2, 4]))
        assert a.rows_contiguous
        assert not a.cols_contiguous

    def test_offsets(self):
        a = BlockAssignment(0, np.arange(3, 7), np.arange(0, 5))
        assert a.row_offset == 3
        assert a.col_offset == 0

    def test_offset_requires_contiguity(self):
        a = BlockAssignment(0, np.array([0, 2]), np.arange(2))
        with pytest.raises(ValueError, match="not contiguous"):
            _ = a.row_offset

    def test_empty_assignment_offsets(self):
        a = BlockAssignment(0, np.empty(0, dtype=np.int64), np.arange(3))
        assert a.row_offset == 0
        assert a.local_shape == (0, 3)

    def test_extract_local_contiguous(self, medium_matrix):
        a = BlockAssignment(0, np.arange(10, 20), np.arange(60))
        local = a.extract_local(medium_matrix)
        np.testing.assert_array_equal(
            local.to_dense(), medium_matrix.to_dense()[10:20, :]
        )

    def test_extract_local_gathered(self, medium_matrix):
        rows = np.array([3, 17, 44])
        cols = np.array([0, 30, 59, 7])
        a = BlockAssignment(0, rows, cols)
        local = a.extract_local(medium_matrix)
        np.testing.assert_array_equal(
            local.to_dense(), medium_matrix.to_dense()[np.ix_(rows, cols)]
        )

    def test_ids_read_only(self):
        a = BlockAssignment(0, np.arange(4), np.arange(4))
        with pytest.raises(ValueError):
            a.row_ids[0] = 9


class TestPartitionPlan:
    def _assignment(self, rank, rows, cols):
        return BlockAssignment(rank, np.asarray(rows), np.asarray(cols))

    def test_valid_plan_accepted(self):
        plan = PartitionPlan(
            "custom",
            (4, 3),
            (
                self._assignment(0, [0, 1], [0, 1, 2]),
                self._assignment(1, [2, 3], [0, 1, 2]),
            ),
        )
        assert plan.n_procs == 2

    def test_uncovered_cell_rejected(self):
        with pytest.raises(ValueError, match="uncovered"):
            PartitionPlan(
                "bad",
                (4, 3),
                (
                    self._assignment(0, [0, 1], [0, 1, 2]),
                    self._assignment(1, [2], [0, 1, 2]),
                ),
            )

    def test_double_covered_cell_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            PartitionPlan(
                "bad",
                (2, 2),
                (
                    self._assignment(0, [0, 1], [0, 1]),
                    self._assignment(1, [1], [1]),
                ),
            )

    def test_rank_order_enforced(self):
        with pytest.raises(ValueError, match="ranks"):
            PartitionPlan(
                "bad",
                (2, 2),
                (
                    self._assignment(1, [0], [0, 1]),
                    self._assignment(0, [1], [0, 1]),
                ),
            )

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PartitionPlan("bad", (2, 2), ())

    def test_large_array_structural_validation(self):
        """A large plan validates exactly, without an n×m cover array."""
        n = 3000  # 9M cells > 1<<22
        plan = RowPartition().plan((n, n), 3)
        assert plan.n_procs == 3  # construction validates internally

    def test_large_array_bad_count_rejected(self):
        n = 3000
        good = RowPartition().plan((n, n), 3)
        with pytest.raises(ValueError, match="covers"):
            PartitionPlan("bad", (n, n), good.assignments[:2])

    def test_large_array_overlap_plus_gap_rejected(self):
        """Two row blocks whose areas sum to n·m, yet row 1050 has two
        owners and row 2099 none: rejected at a size (n·m > 1<<22) where
        a cover-count check cannot tell."""
        n = 2100
        cols = np.arange(n)
        with pytest.raises(ValueError, match="more than once"):
            PartitionPlan(
                "bad",
                (n, n),
                (
                    self._assignment(0, np.arange(0, 1051), cols),
                    self._assignment(1, np.arange(1050, 2099), cols),
                ),
            )

    def test_repeated_id_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            PartitionPlan(
                "bad",
                (2, 2),
                (
                    self._assignment(0, [0, 0], [0, 1]),
                    self._assignment(1, [1], [0, 1]),
                ),
            )

    def test_extract_all_partitions_nnz(self, medium_matrix):
        plan = RowPartition().plan(medium_matrix.shape, 7)
        locals_ = plan.extract_all(medium_matrix)
        assert sum(l.nnz for l in locals_) == medium_matrix.nnz

    def test_extract_all_shape_mismatch(self, medium_matrix):
        plan = RowPartition().plan((10, 10), 2)
        with pytest.raises(ValueError, match="shape"):
            plan.extract_all(medium_matrix)

    def test_indexing_and_iteration(self, medium_matrix):
        plan = RowPartition().plan(medium_matrix.shape, 4)
        assert plan[2].rank == 2
        assert [a.rank for a in plan] == [0, 1, 2, 3]
