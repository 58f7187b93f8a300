"""Unit tests for n-dimensional sparse tensors."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ekmr import SparseTensor


class TestConstruction:
    def test_from_dense_roundtrip(self):
        dense = np.zeros((3, 4, 5))
        dense[0, 1, 2] = 7.0
        dense[2, 3, 4] = -1.5
        t = SparseTensor.from_dense(dense)
        assert t.nnz == 2
        np.testing.assert_array_equal(t.to_dense(), dense)

    def test_canonicalisation_sorts_lexicographically(self):
        coords = np.array([[1, 0], [0, 1], [0, 0]])
        t = SparseTensor((2, 2, 2), coords, [5.0, 6.0])
        assert t.coords[:, 0].tolist() == [0, 1, 0]
        assert t.values.tolist() == [6.0, 5.0]

    def test_duplicates_summed(self):
        coords = np.array([[1, 1], [2, 2], [0, 0]])
        t = SparseTensor((3, 3, 3), coords, [2.0, 3.0])
        assert t.nnz == 1 and t.values[0] == 5.0

    def test_zeros_dropped(self):
        coords = np.array([[0], [0], [0]])
        t = SparseTensor((2, 2, 2), coords, [0.0])
        assert t.nnz == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="dimension 1"):
            SparseTensor((2, 2), np.array([[0], [5]]), [1.0])

    def test_coords_shape_checked(self):
        with pytest.raises(ValueError, match="coords"):
            SparseTensor((2, 2, 2), np.array([[0], [0]]), [1.0])

    def test_values_parallel_checked(self):
        with pytest.raises(ValueError, match="parallel"):
            SparseTensor((2, 2), np.array([[0], [0]]), [1.0, 2.0])

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SparseTensor((), np.empty((0, 0)), [])


class TestRandom:
    def test_exact_count(self):
        t = SparseTensor.random((4, 5, 6), 0.1, seed=1)
        assert t.nnz == round(0.1 * 120)
        assert t.sparse_ratio == pytest.approx(12 / 120)

    def test_deterministic(self):
        assert SparseTensor.random((3, 3, 3), 0.3, seed=2) == SparseTensor.random(
            (3, 3, 3), 0.3, seed=2
        )

    def test_distinct_coordinates(self):
        t = SparseTensor.random((3, 4, 5), 0.5, seed=3)
        flat = np.ravel_multi_index(tuple(t.coords), t.shape)
        assert len(np.unique(flat)) == t.nnz

    def test_high_rank(self):
        t = SparseTensor.random((2, 3, 2, 3, 2), 0.2, seed=4)
        assert t.ndim == 5
        np.testing.assert_array_equal(
            SparseTensor.from_dense(t.to_dense()).coords, t.coords
        )

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            SparseTensor.random((2, 2), 1.2)

    def test_zero_ratio(self):
        assert SparseTensor.random((4, 4, 4), 0.0, seed=0).nnz == 0


class TestQueries:
    def test_equality(self):
        a = SparseTensor.random((3, 3, 3), 0.3, seed=5)
        b = SparseTensor.random((3, 3, 3), 0.3, seed=6)
        assert a == a and a != b

    def test_repr(self):
        t = SparseTensor.random((3, 4), 0.25, seed=1)
        assert "shape=(3, 4)" in repr(t)

    def test_read_only(self):
        t = SparseTensor.random((3, 3), 0.5, seed=2)
        with pytest.raises(ValueError):
            t.values[0] = 0.0


def _lexsort_canonical(coords, values):
    """The n-key lexsort canonicalisation the one-key sort replaced."""
    order = np.lexsort(coords[::-1])
    coords, values = coords[:, order], values[order]
    n = coords.shape[1]
    if n:
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        new_group[1:] = np.any(coords[:, 1:] != coords[:, :-1], axis=0)
        gid = np.cumsum(new_group) - 1
        summed = np.zeros(gid[-1] + 1, dtype=np.float64)
        np.add.at(summed, gid, values)
        firsts = np.flatnonzero(new_group)
        coords, values = coords[:, firsts], summed
        keep = values != 0.0
        coords, values = coords[:, keep], values[keep]
    return np.ascontiguousarray(coords), np.ascontiguousarray(values)


_EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 0.1, -0.1, np.nan, np.inf, -np.inf,
                5e-324, -5e-324, 1e308, -1e308]

#: small shapes of rank 1-4, and large ones at both sides of the 2**63
#: cells an int64 key can hold
_SHAPES = st.one_of(
    st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple),
    st.sampled_from([
        (2**21, 2**21, 2**21), (2**21, 2**21, 2**22), (2**63,),
        (1, 2**63), (1, 1, 2**63), (2, 2**31, 2**31), (2**40, 2**40),
    ]),
)


@st.composite
def _tensor_inputs(draw):
    shape = draw(_SHAPES)
    k = draw(st.integers(0, 80))
    coords = []
    for size in shape:
        pool = draw(st.lists(
            st.integers(0, min(size, 2**63) - 1), min_size=1, max_size=3
        ))
        coords.append(draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k)))
    values = draw(st.lists(
        st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(width=64)),
        min_size=k, max_size=k,
    ))
    coords = np.array(coords, dtype=np.int64).reshape(len(shape), k)
    values = np.array(values, dtype=np.float64)
    if draw(st.booleans()):  # input that is already canonical
        with np.errstate(over="ignore", invalid="ignore"):
            coords, values = _lexsort_canonical(coords, values)
    return shape, coords, values


class TestCanonicalDifferential:
    """The one-key sort reproduces the n-key lexsort byte for byte."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_tensor_inputs())
    def test_matches_lexsort_oracle(self, case):
        shape, coords, values = case
        with np.errstate(over="ignore", invalid="ignore"):
            want = _lexsort_canonical(coords, values)
            t = SparseTensor(shape, coords, values)
        for got, expect in zip((t.coords, t.values), want):
            assert got.dtype == expect.dtype and got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()
            assert not got.flags.writeable and got.flags.c_contiguous
            for caller in (coords, values):
                assert not np.shares_memory(got, caller)
                assert caller.flags.writeable
