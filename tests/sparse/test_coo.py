"""Unit tests for the COO staging format."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sparse import COOMatrix


class TestConstruction:
    def test_from_dense_roundtrip(self):
        dense = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 3.0]])
        m = COOMatrix.from_dense(dense)
        assert m.shape == (2, 3)
        assert m.nnz == 3
        np.testing.assert_array_equal(m.to_dense(), dense)

    def test_empty(self):
        m = COOMatrix.empty((4, 5))
        assert m.nnz == 0
        assert m.shape == (4, 5)
        assert m.to_dense().sum() == 0.0

    def test_zero_shape(self):
        m = COOMatrix.empty((0, 0))
        assert m.sparse_ratio == 0.0

    def test_canonicalisation_sorts_row_major(self):
        m = COOMatrix((3, 3), [2, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0])
        assert m.rows.tolist() == [0, 1, 2]
        assert m.cols.tolist() == [2, 1, 0]
        assert m.values.tolist() == [2.0, 3.0, 1.0]

    def test_duplicates_are_summed(self):
        m = COOMatrix((2, 2), [0, 0, 1], [1, 1, 0], [1.0, 2.5, 4.0])
        assert m.nnz == 2
        assert m.to_dense()[0, 1] == 3.5

    def test_explicit_zeros_dropped(self):
        m = COOMatrix((2, 2), [0, 1], [0, 1], [0.0, 5.0])
        assert m.nnz == 1

    def test_duplicates_cancelling_to_zero_dropped(self):
        m = COOMatrix((2, 2), [0, 0], [0, 0], [1.0, -1.0])
        assert m.nnz == 0

    def test_row_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="row index out of range"):
            COOMatrix((2, 2), [2], [0], [1.0])

    def test_col_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="column index out of range"):
            COOMatrix((2, 2), [0], [5], [1.0])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix((2, 2), [-1], [0], [1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            COOMatrix((2, 2), [0, 1], [0], [1.0])

    def test_2d_coords_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            COOMatrix((2, 2), [[0]], [[0]], [1.0])

    def test_negative_shape_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            COOMatrix((-1, 2), [], [], [])

    def test_nonzeros_in_empty_shape_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix((0, 5), [0], [0], [1.0])

    def test_arrays_are_read_only(self):
        m = COOMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            m.values[0] = 9.0


def _lexsort_canonical(rows, cols, values):
    """The two-key lexsort canonicalisation the one-key sort replaced."""
    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    if len(rows):
        new_group = np.empty(len(rows), dtype=bool)
        new_group[0] = True
        new_group[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        group_ids = np.cumsum(new_group) - 1
        summed = np.zeros(group_ids[-1] + 1, dtype=np.float64)
        np.add.at(summed, group_ids, values)
        keep_first = np.flatnonzero(new_group)
        rows, cols, values = rows[keep_first], cols[keep_first], summed
        nz = values != 0.0
        rows, cols, values = rows[nz], cols[nz], values[nz]
    return rows.copy(), cols.copy(), values.copy()


#: values that stress the byte contract: signed zeros, NaN, infinities,
#: subnormals, and pairs that cancel
_EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 0.1, -0.1, np.nan, np.inf, -np.inf,
                5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]
_VALUES = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(width=64))

#: small shapes (1×N and N×1 included), and large ones at both sides of
#: the 2**63 cells an int64 key can hold
_SHAPES = st.one_of(
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
    st.sampled_from([
        (1, 2**40), (2**40, 1), (2**31, 2**32), (2**32, 2**31),
        (2**31, 2**32 + 1), (2**32, 2**32), (1, 2**63), (2**63, 1),
        (3, 2**62), (2**64, 2**64),
    ]),
)


@st.composite
def _coo_inputs(draw):
    shape = draw(_SHAPES)
    n_rows, n_cols = (min(d, 2**63) for d in shape)
    # a small pool of coordinates, so duplicates are common
    row_pool = draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=4))
    col_pool = draw(st.lists(st.integers(0, n_cols - 1), min_size=1, max_size=4))
    k = draw(st.integers(0, 80))
    rows = draw(st.lists(st.sampled_from(row_pool), min_size=k, max_size=k))
    cols = draw(st.lists(st.sampled_from(col_pool), min_size=k, max_size=k))
    values = draw(st.lists(_VALUES, min_size=k, max_size=k))
    rows = np.array(rows, dtype=np.int64)
    cols = np.array(cols, dtype=np.int64)
    values = np.array(values, dtype=np.float64)
    if draw(st.booleans()):  # input that is already canonical
        with np.errstate(over="ignore", invalid="ignore"):
            rows, cols, values = _lexsort_canonical(rows, cols, values)
    return shape, rows, cols, values


def _assert_identical(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable
    assert got.flags.c_contiguous and got.flags.owndata


class TestCanonicalDifferential:
    """The one-key sort reproduces the two-key lexsort byte for byte."""

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_coo_inputs())
    def test_matches_lexsort_oracle(self, case):
        shape, rows, cols, values = case
        with np.errstate(over="ignore", invalid="ignore"):
            want = _lexsort_canonical(rows, cols, values)
            m = COOMatrix(shape, rows, cols, values)
        for got, expect in zip((m.rows, m.cols, m.values), want):
            _assert_identical(got, expect)
            for caller in (rows, cols, values):
                assert not np.shares_memory(got, caller)
                assert caller.flags.writeable

    def test_duplicates_summed_in_input_order(self):
        # 40 entries on two cells; an unstable sort of the key reorders
        # these ties, and the sums then differ in their last bits
        rows = np.array(
            [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 0, 1,
             1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1]
        )
        big = 1e16
        values = np.array(
            [0.5, 3.0, 3.0, 1.0, -big, big, big, 0.5, big, 0.5, 3.0, big,
             0.5, 1.0, 3.0, 3.0, -big, -big, 0.5, -big, 0.5, big, 0.5, -big,
             0.5, -big, 1.0, big, -big, 3.0, big, -big, -big, big, -big, 0.5,
             0.5, 3.0, -big, -big]
        )
        cols = np.zeros_like(rows)
        m = COOMatrix((2, 1), rows, cols, values)
        for got, expect in zip(
            (m.rows, m.cols, m.values), _lexsort_canonical(rows, cols, values)
        ):
            _assert_identical(got, expect)

    @pytest.mark.parametrize(
        "shape", [(2**31, 2**32), (2**32, 2**32), (1, 2**63)]
    )
    def test_key_guard_sides(self, shape):
        # max-coordinate neighbours, one duplicate pair and one cancelling
        n_rows, n_cols = (min(d, 2**63) - 1 for d in shape)
        rows = np.array([n_rows, 0, n_rows, 0, n_rows], dtype=np.int64)
        cols = np.array([n_cols, n_cols, 0, n_cols, n_cols], dtype=np.int64)
        values = np.array([1.5, 2.0, -0.0, -2.0, 0.25])
        m = COOMatrix(shape, rows, cols, values)
        assert m.rows.tolist() == [n_rows]
        assert m.cols.tolist() == [n_cols]
        assert m.values.tolist() == [1.75]
        for got, expect in zip(
            (m.rows, m.cols, m.values), _lexsort_canonical(rows, cols, values)
        ):
            _assert_identical(got, expect)


class TestQueries:
    def test_sparse_ratio(self):
        m = COOMatrix.from_dense(np.eye(4))
        assert m.sparse_ratio == pytest.approx(4 / 16)

    def test_row_and_col_counts(self):
        dense = np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 0.0]])
        m = COOMatrix.from_dense(dense)
        assert m.row_counts().tolist() == [2, 1]
        assert m.col_counts().tolist() == [1, 2, 0]

    def test_n_rows_n_cols(self, rect_matrix):
        assert rect_matrix.n_rows == 18
        assert rect_matrix.n_cols == 30

    def test_equality(self):
        a = COOMatrix.from_dense(np.eye(3))
        b = COOMatrix.from_dense(np.eye(3))
        c = COOMatrix.from_dense(2 * np.eye(3))
        assert a == b
        assert a != c
        assert (a == "nope") is False or a != "nope"

    def test_repr_mentions_shape_and_nnz(self, small_matrix):
        text = repr(small_matrix)
        assert "12" in text and "nnz" in text


class TestSlicing:
    def test_submatrix_extracts_block(self):
        dense = np.arange(20, dtype=float).reshape(4, 5)
        dense[dense % 3 != 0] = 0.0
        m = COOMatrix.from_dense(dense)
        sub = m.submatrix(slice(1, 3), slice(2, 5))
        np.testing.assert_array_equal(sub.to_dense(), dense[1:3, 2:5])

    def test_submatrix_empty_block(self, small_matrix):
        sub = small_matrix.submatrix(slice(0, 0), slice(0, 5))
        assert sub.shape == (0, 5)
        assert sub.nnz == 0

    def test_submatrix_rejects_strides(self, small_matrix):
        with pytest.raises(ValueError, match="step-1"):
            small_matrix.submatrix(slice(0, 4, 2), slice(0, 4))

    def test_take_rows_reorders(self):
        dense = np.diag([1.0, 2.0, 3.0, 4.0])
        m = COOMatrix.from_dense(dense)
        taken = m.take_rows([3, 1])
        np.testing.assert_array_equal(taken.to_dense(), dense[[3, 1], :])

    def test_take_cols_reorders(self):
        dense = np.diag([1.0, 2.0, 3.0, 4.0])
        m = COOMatrix.from_dense(dense)
        taken = m.take_cols([2, 0, 3])
        np.testing.assert_array_equal(taken.to_dense(), dense[:, [2, 0, 3]])

    def test_take_rows_then_cols_commutes(self, medium_matrix):
        rows = [5, 1, 40, 13]
        cols = [0, 59, 30]
        a = medium_matrix.take_rows(rows).take_cols(cols)
        b = medium_matrix.take_cols(cols).take_rows(rows)
        np.testing.assert_array_equal(a.to_dense(), b.to_dense())

    def test_transpose(self, rect_matrix):
        t = rect_matrix.transpose()
        assert t.shape == (30, 18)
        np.testing.assert_array_equal(t.to_dense(), rect_matrix.to_dense().T)

    def test_double_transpose_identity(self, small_matrix):
        assert small_matrix.transpose().transpose() == small_matrix
