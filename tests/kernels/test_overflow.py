"""Regression tests for wire-format hardening (PR 3 bugfix satellite).

Everything in this repo rides a flat ``float64`` wire buffer, so integers
are exact only inside the ±2**53 window, and a segment's *declared* dtype
(``int32`` vs ``int64``) bounds what may legally come back out.  Before
the hardening, an oversized counter silently lost precision on pack or
wrapped on unpack; now both directions raise.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.encoded_buffer import EncodedBuffer
from repro.core.index_conversion import ConversionSpec
from repro.kernels import get_backend, use_backend
from repro.machine.packing import MAX_EXACT_INT, PackedBuffer
from repro.sparse import COOMatrix

BACKENDS = ["numpy", "python"]
NONE_CONV = ConversionSpec(kind="none")


class TestPackOverflow:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_int_beyond_2_53_refused(self, backend):
        with use_backend(backend):
            with pytest.raises(OverflowError, match=r"±2\*\*53"):
                PackedBuffer.pack(
                    {"RO": np.array([0, MAX_EXACT_INT + 1], dtype=np.int64)}
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_negative_beyond_2_53_refused(self, backend):
        with use_backend(backend):
            with pytest.raises(OverflowError):
                PackedBuffer.pack(
                    {"CO": np.array([-(MAX_EXACT_INT + 1)], dtype=np.int64)}
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_boundary_survives_roundtrip(self, backend):
        """±2**53 itself is exactly representable and must round-trip."""
        with use_backend(backend):
            edge = np.array([MAX_EXACT_INT, -MAX_EXACT_INT, 0], dtype=np.int64)
            buf, _ = PackedBuffer.pack({"RO": edge})
            out, _ = buf.unpack()
            np.testing.assert_array_equal(out["RO"], edge)
            assert out["RO"].dtype == np.int64

    def test_float_segments_unguarded(self):
        """Only integer segments are range-guarded; floats pass through."""
        big = np.array([1e300, -1e300])
        buf, _ = PackedBuffer.pack({"VL": big})
        out, _ = buf.unpack()
        np.testing.assert_array_equal(out["VL"], big)


class TestUnpackDtypeDrift:
    def _buffer_with_layout(self, values, dtype_str, name="RO"):
        """A wire buffer whose layout *claims* ``dtype_str`` for ``name``."""
        data = np.asarray(values, dtype=np.float64)
        return PackedBuffer(data=data, layout=((name, len(data), dtype_str),))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_int32_counter_overflow_detected(self, backend):
        """An int32 row counter fed a >2**31 count must raise, not wrap."""
        buf = self._buffer_with_layout([0.0, float(2**31)], "int32")
        with use_backend(backend):
            with pytest.raises(ValueError, match="integer counter overflow"):
                buf.unpack()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_int32_underflow_detected(self, backend):
        buf = self._buffer_with_layout([-float(2**31) - 1.0], "int32")
        with use_backend(backend):
            with pytest.raises(ValueError, match="integer counter overflow"):
                buf.unpack()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_integral_wire_value_for_int_dtype(self, backend):
        """A corrupted (fractional) wire value must not be truncated."""
        buf = self._buffer_with_layout([1.0, 2.5], "int64")
        with use_backend(backend):
            with pytest.raises(ValueError, match="non-integral wire values"):
                buf.unpack()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_int32_in_range_roundtrips_as_int32(self, backend):
        buf = self._buffer_with_layout([0.0, 7.0, float(2**31 - 1)], "int32")
        with use_backend(backend):
            out, _ = buf.unpack()
        assert out["RO"].dtype == np.int32
        assert out["RO"].tolist() == [0, 7, 2**31 - 1]

    def test_layout_mismatch_detected(self):
        buf = PackedBuffer(
            data=np.zeros(3), layout=(("RO", 2, "int64"),)
        )
        with pytest.raises(ValueError, match="layout covers 2"):
            buf.unpack()

    def test_non_1d_segment_rejected_at_pack(self):
        with pytest.raises(ValueError, match="must be 1-D"):
            PackedBuffer.pack({"RO": np.zeros((2, 2))})


class TestEncodedBufferHardening:
    def _tiny(self):
        return COOMatrix(
            (3, 4),
            np.array([0, 0, 2], dtype=np.int64),
            np.array([1, 3, 0], dtype=np.int64),
            np.array([1.5, 2.5, 3.5]),
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_wire_index_beyond_2_53_refused(self, backend):
        conv = ConversionSpec(kind="offset", offset=MAX_EXACT_INT)
        with use_backend(backend):
            with pytest.raises(OverflowError, match=r"±2\*\*53"):
                EncodedBuffer.encode(self._tiny(), "crs", conv)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corrupt_negative_count(self, backend):
        buf, _ = EncodedBuffer.encode(self._tiny(), "crs", NONE_CONV)
        data = buf.data.copy()
        data[0] = -1.0  # R_0
        bad = EncodedBuffer(data=data, mode="crs", local_shape=buf.local_shape)
        with use_backend(backend):
            with pytest.raises(ValueError, match="corrupt encoded buffer"):
                bad.decode(NONE_CONV)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corrupt_fractional_count(self, backend):
        buf, _ = EncodedBuffer.encode(self._tiny(), "crs", NONE_CONV)
        data = buf.data.copy()
        data[0] = 1.5
        bad = EncodedBuffer(data=data, mode="crs", local_shape=buf.local_shape)
        with use_backend(backend):
            with pytest.raises(ValueError, match="is not a"):
                bad.decode(NONE_CONV)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corrupt_count_walks_past_end(self, backend):
        buf, _ = EncodedBuffer.encode(self._tiny(), "crs", NONE_CONV)
        data = buf.data.copy()
        data[0] = 50.0  # claims 50 pairs in a 9-element buffer
        bad = EncodedBuffer(data=data, mode="crs", local_shape=buf.local_shape)
        with use_backend(backend):
            with pytest.raises(ValueError, match="corrupt encoded buffer"):
                bad.decode(NONE_CONV)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_walk_length_mismatch(self, backend):
        buf, _ = EncodedBuffer.encode(self._tiny(), "crs", NONE_CONV)
        # drop the final V: the walk no longer lands on the buffer end
        bad = EncodedBuffer(
            data=buf.data[:-1].copy(), mode="crs", local_shape=buf.local_shape
        )
        with use_backend(backend):
            with pytest.raises(ValueError, match="corrupt encoded buffer"):
                bad.decode(NONE_CONV)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_clean_roundtrip_still_works(self, backend):
        m = self._tiny()
        with use_backend(backend):
            buf, _ = EncodedBuffer.encode(m, "crs", NONE_CONV)
            out, _ = buf.decode(NONE_CONV)
        coo = out.to_coo()
        np.testing.assert_array_equal(coo.rows, m.rows)
        np.testing.assert_array_equal(coo.cols, m.cols)
        np.testing.assert_array_equal(coo.values, m.values)


#: what a corrupted count becomes (``None`` keeps the buffer valid)
_BAD_COUNTS = [
    None, -1.0, -3.0, -0.0, 0.5, 2.25, 1e-320, float("nan"), float("inf"),
    float("-inf"), 1e20, 2.0**63, 1e300,
]


def _decode_outcome(backend, data, n_seg):
    """What ``ed_decode_counts`` returns, or the exception it raises."""
    try:
        counts, starts = get_backend(backend).ed_decode_counts(data, n_seg)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))
    return ("decoded", counts.dtype, counts.tolist(), starts.dtype, starts.tolist())


class TestCorruptCountsDifferential:
    """The numpy walk steps without checks and checks afterwards; on any
    buffer, valid or corrupt, it must return exactly what the python
    oracle returns or raise the identical exception and message."""

    @given(
        counts=st.lists(st.integers(0, 4), max_size=25),
        bad=st.sampled_from(_BAD_COUNTS),
        where=st.integers(0, 1000),
        shape=st.sampled_from(["as-is", "truncated", "extra", "fewer", "more"]),
        cut=st.integers(1, 6),
    )
    @settings(max_examples=400, deadline=None)
    def test_numpy_walk_matches_oracle(self, counts, bad, where, shape, cut):
        n_seg = len(counts)
        nnz = sum(counts)
        rng = np.random.default_rng(where)
        data = get_backend("python").ed_encode(
            n_seg, counts, np.repeat(np.arange(n_seg), counts),
            rng.integers(0, 50, nnz).astype(np.float64), rng.random(nnz),
        )
        if bad is not None and n_seg:
            seg = where % n_seg
            data[seg + 2 * sum(counts[:seg])] = bad  # that segment's R_i
        if shape == "truncated":
            data = data[: max(len(data) - cut, 0)].copy()
        elif shape == "extra":
            data = np.append(data, float(cut))
        n_walk = {"fewer": max(n_seg - 1, 0), "more": n_seg + 1}.get(shape, n_seg)
        assert _decode_outcome("numpy", data, n_walk) == _decode_outcome(
            "python", data, n_walk
        )

    def test_exact_messages(self):
        """Each fault's message, from either backend."""
        data = get_backend("python").ed_encode(
            2, [1, 0], np.array([0]), np.array([3.0]), np.array([0.5])
        )  # [R_0=1, C, V, R_1=0]
        cases = {
            bad: f"segment 0 count {np.float64(bad)!r} is not a non-negative integer"
            for bad in (-1.0, 0.5)
        }
        cases[9.0] = "walked past the end at segment 1"
        for backend in BACKENDS:
            for bad, message in cases.items():
                corrupt = data.copy()
                corrupt[0] = bad
                with pytest.raises(ValueError) as caught:
                    get_backend(backend).ed_decode_counts(corrupt, 2)
                assert str(caught.value) == f"corrupt encoded buffer: {message}"
            with pytest.raises(ValueError, match="walked 4 of 5 elements"):
                get_backend(backend).ed_decode_counts(np.append(data, 0.0), 2)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_first_fault_wins(self, backend):
        """Faults the unchecked walk would miss or meet out of order."""
        # R_1 = -2 steps back onto R_2 = 2, which lands on the end
        backward = np.array([2.0, 0.0, 2.0, 0.0, 0.0, -2.0, 0.0])
        with pytest.raises(ValueError, match="segment 1 count .*-2.0"):
            get_backend(backend).ed_decode_counts(backward, 3)
        # a fractional R_0 comes before the infinite R_1 its step lands on
        with pytest.raises(ValueError, match="segment 0 count .*0.5"):
            get_backend(backend).ed_decode_counts(np.array([0.5, np.inf]), 2)
