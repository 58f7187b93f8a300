"""Kernel-dispatch layer: selectable implementations of the hot paths.

The paper's headline claim (ED beats CFS beats SFC) rests on the cost of
the pack/encode/decode inner loops.  This package holds *two* complete
implementations of every such hot path:

* ``"python"`` — naive per-element Python loops, a direct transliteration
  of the paper's Section 3/4 pseudo-code.  Slow, obvious, and therefore
  the **reference oracle**: the differential test suite
  (``tests/kernels/test_differential.py``) asserts the fast backend
  reproduces it byte-for-byte (arrays, wire buffers, cost charges).
* ``"numpy"`` — vectorised NumPy, the production fast path and the
  default.

Selection is dynamically scoped: :func:`use_backend` installs a backend
for a ``with`` block, and the ``REPRO_KERNEL_BACKEND`` environment
variable seeds the process default.  ``Machine(backend=...)``, ``run_scheme(backend=...)`` and the
CLI ``--backend`` flag all funnel into :func:`use_backend`.

See DESIGN.md §"Kernel backends" for the dispatch rules and the oracle
methodology, and ``benchmarks/perf/`` for the regression harness that
keeps the numpy backend ≥ 5× faster on the microbenchmarks.
"""

from .dispatch import (
    KernelBackend,
    available_backends,
    current_backend,
    current_backend_name,
    get_backend,
    observe_kernel_calls,
    register_backend,
    use_backend,
)

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
