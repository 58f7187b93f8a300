"""Differential-testing oracle: numpy backend ≡ python backend, exactly.

The byte-identity contract (DESIGN.md §"Kernel backends"): for every
kernel, every scheme, every partition and every index-conversion case, the
vectorised numpy backend and the per-element python oracle must produce

* identical arrays (values **and** dtypes — ``tobytes()`` equal),
* identical wire buffers (CFS packed buffers, ED special buffers),
* identical simulated costs (the full machine trace, event by event).

Hypothesis drives the shapes/densities/seeds; explicit edge cases pin
zero-nnz, single-row, single-column and ``p=1`` layouts.  Any divergence
is a bug in one of the backends, and the python oracle is simple enough
to review by eye — that is the point of keeping it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import get_compression, get_partition, get_scheme
from repro.core.encoded_buffer import EncodedBuffer
from repro.core.index_conversion import ConversionSpec
from repro.faults import FaultInjector, FaultSpec
from repro.kernels import get_backend, use_backend
from repro.machine import Machine, sp2_cost_model, trace_to_dict
from repro.machine.packing import PackedBuffer
from repro.sparse import CCSMatrix, COOMatrix, CRSMatrix, random_sparse

SCHEMES = ["sfc", "cfs", "ed"]
PARTITIONS = ["row", "column", "mesh2d"]
COMPRESSIONS = ["crs", "ccs"]

NP = get_backend("numpy")
PY = get_backend("python")


def assert_same_array(a: np.ndarray, b: np.ndarray, what: str = "") -> None:
    """Byte-identity: dtype, shape and contents all exactly equal."""
    assert a.dtype == b.dtype, f"{what}: dtype {a.dtype} != {b.dtype}"
    assert a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}"
    assert a.tobytes() == b.tobytes(), f"{what}: contents differ"


def assert_same_matrix(a, b) -> None:
    assert type(a) is type(b)
    assert a.shape == b.shape
    assert_same_array(a.indptr, b.indptr, "indptr")
    assert_same_array(a.indices, b.indices, "indices")
    assert_same_array(a.values, b.values, "values")


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def sparse_matrices(draw, min_side=1, max_side=16):
    """A small random sparse matrix (density may be 0 → zero nnz)."""
    n_rows = draw(st.integers(min_side, max_side))
    n_cols = draw(st.integers(min_side, max_side))
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.6, 1.0]))
    seed = draw(st.integers(0, 2**20))
    return random_sparse((n_rows, n_cols), density, seed=seed)


@st.composite
def coo_triples(draw):
    """A canonical COO triple as raw arrays (plus the shape)."""
    m = draw(sparse_matrices())
    return m.shape, m.rows, m.cols, m.values


# ----------------------------------------------------------------------
# kernel-level differentials (raw arrays in, raw arrays out)
# ----------------------------------------------------------------------
class TestCompressionKernels:
    @given(m=sparse_matrices())
    @settings(max_examples=50, deadline=None)
    def test_coo_from_dense(self, m):
        dense = m.to_dense()
        for got, want in zip(PY.coo_from_dense(dense), NP.coo_from_dense(dense)):
            assert_same_array(got, want)

    @pytest.mark.parametrize(
        "dense",
        [
            np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, -2.5]]),
            np.array([[np.nan, 0.0], [-0.0, np.nan]]),
            np.array([[np.inf, 0.0, -np.inf], [0.0, -0.0, 3.0]]),
            np.zeros((0, 7)),
            np.zeros((7, 0)),
            np.zeros((0, 0)),
            np.arange(-6.0, 6.0).reshape(3, 4).T,  # a transposed view
            np.asfortranarray(np.diag([1.0, -0.0, np.nan, 4.0])),
            # many rows, so the row of each flat position is not trivial
            np.where(np.arange(300 * 700).reshape(300, 700) % 7 == 0, 0.0, 1.5),
        ],
        ids=[
            "negative-zero", "nan", "inf", "0xm", "nx0", "0x0",
            "transposed", "fortran", "large",
        ],
    )
    def test_coo_from_dense_edge_cases(self, dense):
        for got, want in zip(PY.coo_from_dense(dense), NP.coo_from_dense(dense)):
            assert_same_array(got, want)

    @given(t=coo_triples())
    @settings(max_examples=50, deadline=None)
    def test_crs_from_coo(self, t):
        shape, rows, cols, values = t
        for got, want in zip(
            PY.crs_from_coo(shape, rows, cols, values),
            NP.crs_from_coo(shape, rows, cols, values),
        ):
            assert_same_array(got, want)

    @given(t=coo_triples())
    @settings(max_examples=50, deadline=None)
    def test_ccs_from_coo(self, t):
        shape, rows, cols, values = t
        for got, want in zip(
            PY.ccs_from_coo(shape, rows, cols, values),
            NP.ccs_from_coo(shape, rows, cols, values),
        ):
            assert_same_array(got, want)


class TestWireKernels:
    @given(m=sparse_matrices())
    @settings(max_examples=50, deadline=None)
    def test_cfs_pack_unpack(self, m):
        crs = CRSMatrix.from_coo(m)
        arrays = {"RO": crs.RO, "CO": crs.CO, "VL": crs.VL}
        with use_backend("python"):
            buf_py, ops_py = PackedBuffer.pack(arrays)
        with use_backend("numpy"):
            buf_np, ops_np = PackedBuffer.pack(arrays)
        assert ops_py == ops_np
        assert buf_py.layout == buf_np.layout
        assert_same_array(buf_py.data, buf_np.data, "wire")
        with use_backend("python"):
            out_py, _ = buf_py.unpack()
        with use_backend("numpy"):
            out_np, _ = buf_np.unpack()
        assert out_py.keys() == out_np.keys()
        for key in out_py:
            assert_same_array(out_py[key], out_np[key], key)

    @given(m=sparse_matrices(), mode=st.sampled_from(["crs", "ccs"]))
    @settings(max_examples=50, deadline=None)
    def test_ed_encode_decode(self, m, mode):
        conv = ConversionSpec(kind="offset", offset=3)
        with use_backend("python"):
            buf_py, ops_py = EncodedBuffer.encode(m, mode, conv)
            mat_py, dec_py = buf_py.decode(conv)
        with use_backend("numpy"):
            buf_np, ops_np = EncodedBuffer.encode(m, mode, conv)
            mat_np, dec_np = buf_np.decode(conv)
        assert ops_py == ops_np and dec_py == dec_np
        assert_same_array(buf_py.data, buf_np.data, "special buffer")
        assert_same_matrix(mat_py, mat_np)


class TestIndexConversionKernels:
    @given(
        idx=st.lists(st.integers(0, 500), max_size=40),
        delta=st.integers(-500, 500),
    )
    @settings(max_examples=50, deadline=None)
    def test_shift(self, idx, delta):
        arr = np.array(idx, dtype=np.int64)
        assert_same_array(PY.shift_indices(arr, delta), NP.shift_indices(arr, delta))

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_gather_and_lookup(self, data):
        size = data.draw(st.integers(1, 60))
        own = data.draw(
            st.lists(st.integers(0, size - 1), unique=True, min_size=0, max_size=size)
        )
        global_ids = np.array(sorted(own), dtype=np.int64)
        assert_same_array(
            PY.build_index_lookup(global_ids, size),
            NP.build_index_lookup(global_ids, size),
            "lookup",
        )
        if len(global_ids):
            k = data.draw(st.lists(st.integers(0, len(global_ids) - 1), max_size=30))
            idx = np.array(k, dtype=np.int64)
            assert_same_array(
                PY.gather_indices(idx, global_ids),
                NP.gather_indices(idx, global_ids),
                "gather",
            )

    @pytest.mark.parametrize("kind,kwargs", [
        ("none", {}),
        ("offset", {"offset": 7}),
        ("offset", {"offset": -7}),
        ("map", {"global_ids": np.array([2, 3, 5, 8, 13], dtype=np.int64)}),
    ])
    def test_conversion_spec_roundtrip(self, kind, kwargs):
        conv = ConversionSpec(kind=kind, **kwargs)
        local = np.array([0, 2, 4, 1], dtype=np.int64)
        with use_backend("python"):
            g_py = conv.to_global(local)
            l_py = conv.to_local(g_py)
        with use_backend("numpy"):
            g_np = conv.to_global(local)
            l_np = conv.to_local(g_np)
        assert_same_array(g_py, g_np, "to_global")
        assert_same_array(l_py, l_np, "to_local")
        np.testing.assert_array_equal(l_py, local)


class TestTraversalKernels:
    @given(m=sparse_matrices())
    @settings(max_examples=50, deadline=None)
    def test_spmv_all_formats(self, m):
        x = np.linspace(-1.0, 1.0, m.shape[1])
        xt = np.linspace(-1.0, 1.0, m.shape[0])
        crs, ccs = CRSMatrix.from_coo(m), CCSMatrix.from_coo(m)
        pairs = [
            ("spmv_crs", (m.shape, crs.indptr, crs.indices, crs.values, x)),
            ("spmv_ccs", (m.shape, ccs.indptr, ccs.indices, ccs.values, x)),
            ("spmv_coo", (m.shape, m.rows, m.cols, m.values, x)),
            ("spmv_t_crs", (m.shape, crs.indptr, crs.indices, crs.values, xt)),
            ("spmv_t_ccs", (m.shape, ccs.indptr, ccs.indices, ccs.values, xt)),
            ("spmv_t_coo", (m.shape, m.rows, m.cols, m.values, xt)),
        ]
        for kernel, argv in pairs:
            assert_same_array(
                getattr(PY, kernel)(*argv), getattr(NP, kernel)(*argv), kernel
            )

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_spgemm_expand(self, data):
        a = data.draw(sparse_matrices(max_side=10))
        inner = a.shape[1]
        k = data.draw(st.integers(1, 10))
        density = data.draw(st.sampled_from([0.0, 0.1, 0.4]))
        seed = data.draw(st.integers(0, 2**20))
        b = CRSMatrix.from_coo(random_sparse((inner, k), density, seed=seed))
        for got, want in zip(
            PY.spgemm_expand(a.rows, a.cols, a.values, b.indptr, b.indices, b.values),
            NP.spgemm_expand(a.rows, a.cols, a.values, b.indptr, b.indices, b.values),
        ):
            assert_same_array(got, want)


# ----------------------------------------------------------------------
# scheme-level differentials (whole simulated runs, full trace equality)
# ----------------------------------------------------------------------
def run_backend(backend, scheme, partition, compression, matrix, p, *,
                faults=None, fault_seed=0):
    plan = get_partition(partition).plan(matrix.shape, p)
    injector = (
        FaultInjector(faults, seed=fault_seed) if faults is not None else None
    )
    machine = Machine(p, cost=sp2_cost_model(), faults=injector, backend=backend)
    result = get_scheme(scheme).run(
        machine, matrix, plan, get_compression(compression)
    )
    return machine, result


def assert_runs_identical(scheme, partition, compression, matrix, p, **kw):
    m_py, r_py = run_backend("python", scheme, partition, compression, matrix, p, **kw)
    m_np, r_np = run_backend("numpy", scheme, partition, compression, matrix, p, **kw)
    # identical cost-model charges, event by event
    assert trace_to_dict(m_py.trace) == trace_to_dict(m_np.trace)
    assert r_py.t_distribution == r_np.t_distribution
    assert r_py.t_compression == r_np.t_compression
    assert r_py.fault_summary == r_np.fault_summary
    # identical compressed locals, byte for byte
    assert len(r_py.locals_) == len(r_np.locals_)
    for a, b in zip(r_py.locals_, r_np.locals_):
        assert_same_matrix(a, b)


class TestSchemeDifferential:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("partition", PARTITIONS)
    @pytest.mark.parametrize("compression", COMPRESSIONS)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_full_run_identical(self, scheme, partition, compression, data):
        p = data.draw(st.integers(1, 4))
        n_rows = data.draw(st.integers(p, 14))
        n_cols = data.draw(st.integers(p, 14))
        density = data.draw(st.sampled_from([0.0, 0.1, 0.3]))
        seed = data.draw(st.integers(0, 2**20))
        matrix = random_sparse((n_rows, n_cols), density, seed=seed)
        assert_runs_identical(scheme, partition, compression, matrix, p)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_identical_under_fault_injection(self, scheme):
        """Same fault seed ⇒ same retries/corruptions on either backend."""
        matrix = random_sparse((40, 40), 0.1, seed=11)
        assert_runs_identical(
            scheme, "row", "crs", matrix, 4,
            faults=FaultSpec.lossy(0.3), fault_seed=7,
        )


class TestEdgeCases:
    """The layouts most likely to break one backend and not the other."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("compression", COMPRESSIONS)
    def test_zero_nnz(self, scheme, compression):
        empty = COOMatrix(
            (8, 8),
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0),
        )
        assert_runs_identical(scheme, "row", compression, empty, 2)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_single_row(self, scheme):
        matrix = random_sparse((1, 12), 0.4, seed=5)
        assert_runs_identical(scheme, "row", "crs", matrix, 1)
        assert_runs_identical(scheme, "column", "crs", matrix, 3)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_single_column(self, scheme):
        matrix = random_sparse((12, 1), 0.4, seed=5)
        assert_runs_identical(scheme, "column", "ccs", matrix, 1)
        assert_runs_identical(scheme, "row", "ccs", matrix, 3)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("partition", PARTITIONS)
    def test_p_equals_one(self, scheme, partition):
        matrix = random_sparse((9, 9), 0.2, seed=3)
        assert_runs_identical(scheme, partition, "crs", matrix, 1)

    def test_fully_dense(self):
        matrix = random_sparse((6, 6), 1.0, seed=1)
        for scheme in SCHEMES:
            assert_runs_identical(scheme, "row", "crs", matrix, 2)


# ----------------------------------------------------------------------
# app-level differentials (kernels chained after a scheme run)
# ----------------------------------------------------------------------
class TestAppDifferential:
    def _distributed(self, backend, n=20, p=4, partition="row"):
        from repro.apps import distributed_spmv

        matrix = random_sparse((n, n), 0.15, seed=42)
        plan = get_partition(partition).plan(matrix.shape, p)
        machine = Machine(p, cost=sp2_cost_model(), backend=backend)
        get_scheme("ed").run(machine, matrix, plan, get_compression("crs"))
        x = np.linspace(-2.0, 2.0, n)
        y = distributed_spmv(machine, plan, x)
        return y, trace_to_dict(machine.trace)

    @pytest.mark.parametrize("partition", PARTITIONS)
    def test_spmv_identical(self, partition):
        y_py, t_py = self._distributed("python", partition=partition)
        y_np, t_np = self._distributed("numpy", partition=partition)
        assert_same_array(y_py, y_np, "y")
        assert t_py == t_np

    def test_spgemm_identical(self):
        from repro.apps import distributed_spgemm

        outs = {}
        for backend in ("python", "numpy"):
            matrix = random_sparse((15, 15), 0.2, seed=8)
            plan = get_partition("row").plan(matrix.shape, 3)
            machine = Machine(3, cost=sp2_cost_model(), backend=backend)
            get_scheme("cfs").run(machine, matrix, plan, get_compression("crs"))
            b = random_sparse((15, 6), 0.3, seed=9)
            c = distributed_spgemm(machine, plan, b)
            outs[backend] = (c, trace_to_dict(machine.trace))
        c_py, t_py = outs["python"]
        c_np, t_np = outs["numpy"]
        assert_same_array(c_py.rows, c_np.rows, "C.rows")
        assert_same_array(c_py.cols, c_np.cols, "C.cols")
        assert_same_array(c_py.values, c_np.values, "C.values")
        assert t_py == t_np
