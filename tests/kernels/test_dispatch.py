"""Registry, scoping and plumbing tests for the kernel-dispatch layer."""

import numpy as np
import pytest

from repro.kernels import (
    KernelBackend,
    available_backends,
    current_backend,
    dispatch,
    get_backend,
    use_backend,
)
from repro.kernels.dispatch import register_backend, _REGISTRY
from repro.machine import Machine


@pytest.fixture(autouse=True)
def _pin_numpy_default(monkeypatch):
    """The scoping assertions below are written against a numpy ambient
    default; pin it for each test so this module also passes under
    ``REPRO_KERNEL_BACKEND=python`` — the CI oracle run that seeds a
    different process-wide default."""
    monkeypatch.setattr(dispatch, "_default_name", "numpy")


class TestRegistry:
    def test_builtins_registered(self):
        assert available_backends() == ("numpy", "python")

    def test_get_backend_returns_named_instance(self):
        assert get_backend("numpy").name == "numpy"
        assert get_backend("python").name == "python"

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ValueError, match=r"unknown kernel backend 'brs'"):
            get_backend("brs")
        with pytest.raises(ValueError, match=r"choose from numpy, python"):
            get_backend("brs")

    def test_register_custom_backend(self):
        class Fake(KernelBackend):
            name = "fake-test-backend"

        register_backend(Fake())
        try:
            assert "fake-test-backend" in available_backends()
            assert isinstance(get_backend("fake-test-backend"), Fake)
        finally:
            del _REGISTRY["fake-test-backend"]


class TestScoping:
    def test_default_is_numpy(self):
        assert current_backend().name == "numpy"

    def test_use_backend_scopes_and_restores(self):
        assert current_backend().name == "numpy"
        with use_backend("python") as b:
            assert b.name == "python"
            assert current_backend().name == "python"
        assert current_backend().name == "numpy"

    def test_use_backend_nests(self):
        with use_backend("python"):
            with use_backend("numpy"):
                assert current_backend().name == "numpy"
            assert current_backend().name == "python"

    def test_none_scope_is_transparent(self):
        with use_backend(None):
            assert current_backend().name == "numpy"
        with use_backend("python"):
            with use_backend(None):
                assert current_backend().name == "python"

    def test_use_backend_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with use_backend("python"):
                raise RuntimeError("boom")
        assert current_backend().name == "numpy"

    def test_invalid_scope_name_raises_without_pushing(self):
        with pytest.raises(ValueError):
            with use_backend("brs"):
                pass  # pragma: no cover
        assert current_backend().name == "numpy"


class TestMachinePlumbing:
    def test_machine_validates_backend_eagerly(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            Machine(2, backend="brs")

    def test_machine_none_backend_inherits_default(self):
        m = Machine(2)
        assert m.backend is None
        with m.kernel_context():
            assert current_backend().name == "numpy"

    def test_machine_kernel_context_scopes(self):
        m = Machine(2, backend="python")
        assert m.backend == "python"
        with m.kernel_context():
            assert current_backend().name == "python"
        assert current_backend().name == "numpy"

    def test_env_seeds_default(self, monkeypatch):
        # the module-level default is read once at import; simulate that
        # path by checking the documented environment contract instead
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        code = (
            "from repro.kernels import current_backend;"
            "print(current_backend().name)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["REPRO_KERNEL_BACKEND"] = "python"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            cwd=str(root),
        )
        assert out.stdout.strip() == "python", out.stderr


class TestBackendSanity:
    """Spot checks that each backend produces the documented dtypes."""

    @pytest.mark.parametrize("name", ["numpy", "python"])
    def test_pack_is_float64(self, name):
        b = get_backend(name)
        data = b.pack_segments([np.array([1, 2], np.int64), np.array([0.5])])
        assert data.dtype == np.float64
        assert data.tolist() == [1.0, 2.0, 0.5]

    @pytest.mark.parametrize("name", ["numpy", "python"])
    def test_empty_pack(self, name):
        data = get_backend(name).pack_segments([])
        assert data.dtype == np.float64 and len(data) == 0

    @pytest.mark.parametrize("name", ["numpy", "python"])
    def test_index_kernels_int64(self, name):
        b = get_backend(name)
        idx = np.array([3, 1, 2], dtype=np.int64)
        assert b.shift_indices(idx, -1).dtype == np.int64
        table = np.array([10, 20, 30, 40], dtype=np.int64)
        assert b.gather_indices(idx, table).dtype == np.int64
        lookup = b.build_index_lookup(np.array([2, 5], np.int64), 7)
        assert lookup.dtype == np.int64
        assert lookup.tolist() == [-1, -1, 0, -1, -1, 1, -1]
