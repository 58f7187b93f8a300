"""Post-distribution verification: did every processor get the right data?

Independent of which scheme ran, the contract is identical: processor ``r``
must end up holding the compression of exactly the local sparse array the
partition plan assigns it, with *local* indices.  :func:`verify_distribution`
recomputes that ground truth directly (host-side, no machine involved) and
compares; :func:`verify_all_schemes_agree` cross-checks several results
against each other.
"""

from __future__ import annotations

import numpy as np

from ..core.base import SchemeResult
from ..core.registry import get_compression
from ..partition.base import PartitionPlan
from ..sparse.coo import COOMatrix

__all__ = ["verify_distribution", "verify_all_schemes_agree"]


def verify_distribution(
    result: SchemeResult, matrix: COOMatrix, plan: PartitionPlan
) -> None:
    """Raise ``AssertionError`` unless every local result is exactly right."""
    if plan.n_procs != result.n_procs:
        raise ValueError("plan and result disagree on processor count")
    compression = get_compression(result.compression)
    for assignment, got in zip(plan, result.locals_):
        expected = compression.from_coo(assignment.extract_local(matrix))
        if got.shape != expected.shape:
            raise AssertionError(
                f"rank {assignment.rank}: local shape {got.shape}, "
                f"expected {expected.shape}"
            )
        for attr in ("indptr", "indices"):
            if not np.array_equal(getattr(got, attr), getattr(expected, attr)):
                raise AssertionError(
                    f"rank {assignment.rank}: {attr} mismatch "
                    f"({result.scheme}/{result.partition}/{result.compression})"
                )
        if not np.array_equal(got.values, expected.values):
            raise AssertionError(f"rank {assignment.rank}: values mismatch")


def verify_all_schemes_agree(results: list[SchemeResult]) -> None:
    """Raise unless all results hold element-wise identical local arrays.

    All inputs must share partition/compression/processor count (they ran
    on the same problem); the *schemes* may differ — that is the point.
    """
    if len(results) < 2:
        raise ValueError("need at least two results to compare")
    first = results[0]
    for other in results[1:]:
        if (
            other.n_procs != first.n_procs
            or other.partition != first.partition
            or other.compression != first.compression
        ):
            raise ValueError("results are not comparable (different problem)")
        for rank, (a, b) in enumerate(zip(first.locals_, other.locals_)):
            same = (
                a.shape == b.shape
                and np.array_equal(a.indptr, b.indptr)
                and np.array_equal(a.indices, b.indices)
                and np.array_equal(a.values, b.values)
            )
            if not same:
                raise AssertionError(
                    f"schemes {first.scheme} and {other.scheme} disagree on "
                    f"rank {rank}'s local array"
                )
