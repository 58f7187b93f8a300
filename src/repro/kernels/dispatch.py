"""Backend registry and dynamic-scope selection for the kernel layer.

A :class:`KernelBackend` bundles one implementation of every hot-path
kernel (compression, CFS pack/unpack, ED encode/decode, index conversion,
SpMV/SpGEMM traversals).  Two are registered:

* ``"python"`` (:mod:`repro.kernels.python_backend`) — the per-element
  reference oracle;
* ``"numpy"`` (:mod:`repro.kernels.numpy_backend`) — the vectorised fast
  path (default).

The *current* backend is resolved at call time by the thin wrappers in
:mod:`repro.machine.packing`, :mod:`repro.core.encoded_buffer`,
:mod:`repro.core.index_conversion`, :mod:`repro.sparse` and
:mod:`repro.sparse.ops`; callers never hold a backend object unless they
want one.  Both backends must be *byte-identical* in their outputs — the
contract enforced by ``tests/kernels/test_differential.py`` — so backend
choice can never change a simulated cost, a wire buffer or a golden
trace, only wall-clock speed.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Sequence, cast

import numpy as np

__all__ = [
    "KernelBackend",
    "available_backends",
    "current_backend",
    "current_backend_name",
    "get_backend",
    "observe_kernel_calls",
    "register_backend",
    "use_backend",
]


class KernelBackend:
    """Abstract kernel bundle.  Subclasses implement every method.

    All methods operate on plain numpy arrays (never on the sparse
    classes) so the two backends share zero code with each other and the
    python one stays an honest independent oracle.  Output dtypes are part
    of the contract: index arrays are ``int64``, value/wire arrays are
    ``float64``.
    """

    #: registry name ("python" | "numpy")
    name: str = "abstract"

    # -- compression (CRS/CCS from dense or canonical COO) --------------
    def coo_from_dense(self, dense: np.ndarray):
        """``dense -> (rows, cols, values)`` in row-major nonzero order."""
        raise NotImplementedError

    def crs_from_coo(self, shape, rows, cols, values):
        """Canonical (row-major) COO triple -> ``(indptr, indices, values)``."""
        raise NotImplementedError

    def ccs_from_coo(self, shape, rows, cols, values):
        """Canonical COO triple -> column-major ``(indptr, indices, values)``."""
        raise NotImplementedError

    # -- CFS wire packing ------------------------------------------------
    def pack_segments(self, segments: Sequence[np.ndarray]) -> np.ndarray:
        """Concatenate 1-D segments into one flat ``float64`` wire buffer."""
        raise NotImplementedError

    def unpack_segment(
        self, data: np.ndarray, offset: int, length: int, dtype: np.dtype
    ) -> np.ndarray:
        """Copy ``data[offset:offset+length]`` out as ``dtype``."""
        raise NotImplementedError

    # -- ED special buffer (Figure 6) ------------------------------------
    def ed_encode(self, n_seg, counts, seg_of, idx_wire, values) -> np.ndarray:
        """Build the Figure-6 buffer ``R_i, C, V, C, V, ...`` per segment.

        ``counts[i]`` is the nonzero count of segment ``i``; ``seg_of``,
        ``idx_wire`` and ``values`` are parallel per-nonzero arrays in
        segment-major order.
        """
        raise NotImplementedError

    def ed_decode_counts(self, data: np.ndarray, n_seg: int):
        """Walk the buffer sequentially -> ``(counts, seg_starts)``.

        Raises ``ValueError`` on a corrupt buffer (negative / non-integral
        ``R_i`` or a walk that does not land exactly on the buffer end).
        """
        raise NotImplementedError

    def ed_decode_pairs(self, data, counts, seg_starts, indptr):
        """Gather the ``C``/``V`` pairs -> ``(wire_idx, values)``."""
        raise NotImplementedError

    # -- index conversion (Cases 3.2.1–3.3.3) -----------------------------
    def shift_indices(self, idx: np.ndarray, delta: int) -> np.ndarray:
        """``idx + delta`` (the offset cases; ``delta`` may be negative)."""
        raise NotImplementedError

    def gather_indices(self, idx: np.ndarray, table: np.ndarray) -> np.ndarray:
        """``table[idx]`` (the non-contiguous map case)."""
        raise NotImplementedError

    def build_index_lookup(self, global_ids: np.ndarray, size: int) -> np.ndarray:
        """Inverse map: ``lookup[global_ids[k]] = k``, ``-1`` elsewhere."""
        raise NotImplementedError

    # -- SpMV / SpGEMM traversals -----------------------------------------
    def spmv_crs(self, shape, indptr, indices, values, x) -> np.ndarray:
        raise NotImplementedError

    def spmv_ccs(self, shape, indptr, indices, values, x) -> np.ndarray:
        raise NotImplementedError

    def spmv_coo(self, shape, rows, cols, values, x) -> np.ndarray:
        raise NotImplementedError

    def spmv_t_crs(self, shape, indptr, indices, values, x) -> np.ndarray:
        raise NotImplementedError

    def spmv_t_ccs(self, shape, indptr, indices, values, x) -> np.ndarray:
        raise NotImplementedError

    def spmv_t_coo(self, shape, rows, cols, values, x) -> np.ndarray:
        raise NotImplementedError

    def spgemm_expand(self, a_rows, a_cols, a_values, b_indptr, b_indices, b_values):
        """Expand ``A·B`` partial products -> ``(rows, cols, vals)``.

        Traversal order is part of the contract (it fixes float summation
        order downstream): distinct ``k`` ascending, then ``A``'s
        nonzeros with column ``k`` in row-major order, then ``B[k,:]``.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug nicety
        return f"<KernelBackend {self.name!r}>"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> None:
    """Register a backend under ``backend.name`` (idempotent by name)."""
    _REGISTRY[backend.name] = backend


def _ensure_builtins() -> None:
    if "numpy" not in _REGISTRY:
        from .numpy_backend import NumpyBackend

        register_backend(NumpyBackend())
    if "python" not in _REGISTRY:
        from .python_backend import PythonBackend

        register_backend(PythonBackend())


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend` / ``--backend``, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> KernelBackend:
    """Look a backend up by name; raise ``ValueError`` with the choices."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r} "
            f"(choose from {', '.join(sorted(_REGISTRY))})"
        ) from None


# ----------------------------------------------------------------------
# dynamic scoping
# ----------------------------------------------------------------------
#: process default; the environment can pre-select the oracle for an
#: entire run (`REPRO_KERNEL_BACKEND=python pytest ...`)
_default_name: str = os.environ.get("REPRO_KERNEL_BACKEND", "numpy")
#: innermost `use_backend` override, if any
_scope_stack: list[str] = []


#: active kernel-call observation hooks (`observe_kernel_calls` scopes)
_call_hooks: list = []


class _ObservedBackend:
    """Transparent counting proxy around one backend.

    Returned by :func:`current_backend` only while at least one
    :func:`observe_kernel_calls` scope is active; each public kernel
    method fetched through it reports ``(backend_name, kernel_name)`` to
    every hook before delegating.  With no hooks installed the proxy is
    never built, so the un-observed dispatch path is unchanged.
    """

    __slots__ = ("_backend",)

    def __init__(self, backend: KernelBackend) -> None:
        self._backend = backend

    @property
    def name(self) -> str:
        return self._backend.name

    def __getattr__(self, attr: str):
        target = getattr(self._backend, attr)
        if attr.startswith("_") or not callable(target):
            return target
        backend_name = self._backend.name

        def observed(*args, **kwargs):
            for hook in _call_hooks:
                hook(backend_name, attr)
            return target(*args, **kwargs)

        return observed

    def __repr__(self) -> str:  # pragma: no cover - debug nicety
        return f"<ObservedBackend {self._backend.name!r}>"


@contextmanager
def observe_kernel_calls(hook) -> Iterator[None]:
    """Scope during which ``hook(backend_name, kernel_name)`` is called
    for every kernel dispatched through :func:`current_backend`.

    Used by the observability layer to count kernel calls per backend;
    costs nothing outside the scope (see :class:`_ObservedBackend`).
    """
    _call_hooks.append(hook)
    try:
        yield
    finally:
        _call_hooks.remove(hook)


def current_backend_name() -> str:
    """The backend name hot paths resolve to right now (unvalidated)."""
    return _scope_stack[-1] if _scope_stack else _default_name


def current_backend() -> KernelBackend:
    """The backend hot paths dispatch to right now."""
    backend = get_backend(current_backend_name())
    if _call_hooks:
        # the proxy forwards every kernel attribute to the real backend;
        # it deliberately does not subclass (no shared code), so cast
        return cast(KernelBackend, _ObservedBackend(backend))
    return backend


@contextmanager
def use_backend(name: str | None) -> Iterator[KernelBackend]:
    """Dynamically scope the current backend; ``None`` is a no-op scope."""
    if name is None:
        yield current_backend()
        return
    get_backend(name)  # validate before pushing
    _scope_stack.append(name)
    try:
        yield current_backend()
    finally:
        _scope_stack.pop()
