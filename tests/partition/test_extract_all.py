"""``PartitionPlan.extract_all`` ≡ the per-rank ``extract_local`` oracle.

``extract_all`` makes one pass over the nonzeros for the whole plan;
``BlockAssignment.extract_local`` cuts each rank's block out on its own
(``submatrix`` or ``take_rows``/``take_cols``).  They must agree byte for
byte — shape, dtype, rows, cols and values — for every partition method,
for empty blocks (``p > n``), zero-nnz arrays, ``n×1`` and ``1×m`` arrays,
and for hand-built plans that are not a row-block × column-block grid or
list their ids out of order.  ``PartitionPlan.owners`` must name, for each
nonzero, the rank whose ``extract_local`` block holds it.

A plan keeps its last extraction for the matrix object it came from; the
memo is not part of the plan's value and never outlives that matrix.
"""

import copy
import gc
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import (
    BinPackingRowPartition,
    BlockAssignment,
    BlockCyclicColumnPartition,
    BlockCyclicMesh2DPartition,
    BlockCyclicRowPartition,
    ColumnPartition,
    Mesh2DPartition,
    PartitionPlan,
    RecursiveBisectionRowPartition,
    RowPartition,
    base,
    parse_distribution,
)
from repro.sparse import COOMatrix, random_sparse

#: every method in repro.partition; the two load balancers need the matrix
METHODS = [
    lambda m: RowPartition(),
    lambda m: ColumnPartition(),
    lambda m: Mesh2DPartition(),
    lambda m: BlockCyclicRowPartition(2),
    lambda m: BlockCyclicColumnPartition(3),
    lambda m: BlockCyclicMesh2DPartition(1, 2),
    lambda m: BinPackingRowPartition(m),
    lambda m: RecursiveBisectionRowPartition(m),
    lambda m: parse_distribution("(CYCLIC, CYCLIC)"),
]


def assert_same(got: COOMatrix, want: COOMatrix) -> None:
    assert got.shape == want.shape
    for name in ("rows", "cols", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def assert_matches_oracle(plan: PartitionPlan, matrix: COOMatrix) -> None:
    got = plan.extract_all(matrix)
    assert len(got) == plan.n_procs
    holder = np.full(plan.global_shape, -1)
    for a, local in zip(plan, got):
        want = a.extract_local(matrix)
        assert_same(local, want)
        holder[a.row_ids[want.rows], a.col_ids[want.cols]] = a.rank
    # the owner lookup names the rank whose block holds each nonzero
    owners = plan.owners(matrix.rows, matrix.cols)
    assert np.array_equal(owners, holder[matrix.rows, matrix.cols])


@given(
    method=st.sampled_from(METHODS),
    n_rows=st.integers(1, 24),
    n_cols=st.integers(1, 24),
    density=st.sampled_from([0.0, 0.1, 0.4, 1.0]),
    n_procs=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    chunk=st.sampled_from([1, 5, 1 << 16]),
)
@settings(max_examples=300, deadline=None)
def test_extract_all_matches_extract_local(
    method, n_rows, n_cols, density, n_procs, seed, chunk
):
    matrix = random_sparse((n_rows, n_cols), density, seed=seed)
    plan = method(matrix).plan(matrix.shape, n_procs)
    # a small chunk splits each band's counting sort into many chunks
    with mock.patch.object(base, "_CHUNK", chunk):
        assert_matches_oracle(plan, matrix)


@pytest.mark.parametrize("make", METHODS)
@pytest.mark.parametrize(
    "shape, n_procs",
    [((7, 1), 3), ((1, 9), 4), ((5, 5), 12), ((3, 40), 16), ((40, 3), 16)],
)
@pytest.mark.parametrize("density", [0.0, 0.5])
def test_edge_shapes(make, shape, n_procs, density):
    matrix = random_sparse(shape, density, seed=11)
    assert_matches_oracle(make(matrix).plan(shape, n_procs), matrix)


def _plan(shape, blocks):
    return PartitionPlan(
        "hand-built",
        shape,
        tuple(BlockAssignment(r, rows, cols) for r, (rows, cols) in enumerate(blocks)),
    )


HAND_BUILT = {
    # row sets overlap without being equal: no row-block × column grid
    "not-a-grid": _plan(
        (4, 6),
        [
            ([1, 0], [2, 0, 1]),
            ([0], [5, 3, 4]),
            ([1], [3, 4, 5]),
            ([3, 2], [4, 1, 0, 2, 3, 5]),
        ],
    ),
    # disjoint row bands, each split into different column blocks
    "bands-split-differently": _plan(
        (4, 6),
        [([0, 1], [0, 1, 2]), ([0, 1], [3, 4, 5]), ([2, 3], [0, 1, 2, 3]), ([2, 3], [4, 5])],
    ),
    # a row-block × column-block grid listed in descending order
    "descending-grid": _plan(
        (4, 6),
        [([3, 2], [5, 4, 3]), ([3, 2], [2, 1, 0]), ([1, 0], [5, 4, 3]), ([1, 0], [2, 1, 0])],
    ),
    # non-contiguous, unordered bands and an empty block
    "scattered-with-empty": _plan(
        (4, 6),
        [([2, 0], [1, 3, 5]), ([], [0, 2, 4]), ([0, 2], [4, 0, 2]), ([3, 1], list(range(6)))],
    ),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("chunk", [1, 1 << 16])
def test_hand_built_plans(name, density, chunk):
    plan = HAND_BUILT[name]
    matrix = random_sparse(plan.global_shape, density, seed=5)
    with mock.patch.object(base, "_CHUNK", chunk):
        assert_matches_oracle(plan, matrix)


def test_non_ascending_blocks_are_canonical():
    plan = HAND_BUILT["descending-grid"]
    for local in plan.extract_all(random_sparse(plan.global_shape, 1.0, seed=2)):
        order = np.lexsort((local.cols, local.rows))
        assert np.array_equal(order, np.arange(local.nnz))


@pytest.mark.parametrize("make", METHODS)
def test_extract_all_makes_no_submatrix_call(make):
    matrix = random_sparse((30, 20), 0.3, seed=4)
    plan = make(matrix).plan(matrix.shape, 6)
    with mock.patch.object(
        COOMatrix, "submatrix", side_effect=AssertionError("submatrix called")
    ) as submatrix:
        plan.extract_all(matrix)
    assert submatrix.call_count == 0


def test_extract_all_rejects_a_wrong_shape():
    plan = RowPartition().plan((4, 4), 2)
    with pytest.raises(ValueError, match="plan shape"):
        plan.extract_all(random_sparse((4, 5), 0.5, seed=1))


def test_extraction_is_kept_for_the_same_matrix_object_only():
    plan = Mesh2DPartition().plan((30, 30), 4)
    matrix = random_sparse((30, 30), 0.2, seed=5)
    first = plan.extract_all(matrix)
    assert all(a is b for a, b in zip(first, plan.extract_all(matrix)))
    # an equal matrix is another object: extracted afresh, to equal locals
    twin = COOMatrix(matrix.shape, matrix.rows, matrix.cols, matrix.values)
    again = plan.extract_all(twin)
    for a, b in zip(first, again):
        assert a is not b
        assert_same(a, b)
    # the memo now follows the twin; the list handed out is the caller's
    again.clear()
    assert [x.nnz for x in plan.extract_all(twin)] == [x.nnz for x in first]


def test_extraction_is_let_go_with_its_matrix():
    plan = ColumnPartition().plan((40, 40), 4)
    matrix = random_sparse((40, 40), 0.2, seed=6)
    local = plan.extract_all(matrix)[1]
    del matrix
    gc.collect()
    assert plan._extracted is None
    assert local.nnz  # the caller's locals stay valid


@pytest.mark.parametrize("make", METHODS)
def test_extracted_plan_pickles_copies_and_compares_without_its_memo(make):
    matrix = random_sparse((24, 18), 0.3, seed=7)
    plan = make(matrix).plan(matrix.shape, 5)
    first = plan.extract_all(matrix)
    for twin in (pickle.loads(pickle.dumps(plan)), copy.deepcopy(plan), copy.copy(plan)):
        assert twin is not plan
        assert twin == plan
        assert twin._extracted is None
        for a, b in zip(first, twin.extract_all(matrix)):
            assert a is not b
            assert_same(a, b)
    assert plan._extracted is not None


def test_plans_compare_by_ownership():
    halves = _plan((4, 2), [([0, 1], [0, 1]), ([2, 3], [0, 1])])
    assert halves == _plan((4, 2), [([0, 1], [0, 1]), ([2, 3], [0, 1])])
    assert halves != _plan((4, 2), [([0], [0, 1]), ([1, 2, 3], [0, 1])])
    assert halves != _plan((4, 2), [([1, 0], [0, 1]), ([2, 3], [0, 1])])
    assert halves != _plan((4, 2), [([0, 1], [1, 0]), ([2, 3], [0, 1])])
    assert halves.assignments[0] != "not an assignment"
