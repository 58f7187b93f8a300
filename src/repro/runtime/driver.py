"""End-to-end experiment driver: matrix → machine → scheme → result.

This is the API most callers want: give it a global sparse array (or just a
size and sparse ratio), pick a scheme/partition/compression by name, and
get back a :class:`~repro.core.base.SchemeResult` with the simulated phase
times and every processor's compressed local array.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.base import SchemeResult
from ..core.registry import get_partition
from ..faults.spec import FaultSpec
from ..machine.cost_model import CostModel, sp2_cost_model
from ..machine.topology import Topology
from ..partition.base import PartitionMethod, PartitionPlan
from ..sparse.coo import COOMatrix
# re-bound on purpose: profilers patch every module binding of the
# generator a run can reach
from ..sparse.generators import random_sparse  # noqa: F401
from .session import RunRequest, RunSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.supervise import SuperviseSpec
    from ..obs.spans import Observability

__all__ = ["run_scheme"]


def run_scheme(
    scheme: str,
    matrix: COOMatrix,
    *,
    partition: str | PartitionMethod = "row",
    n_procs: int = 4,
    compression: str = "crs",
    cost: CostModel | None = None,
    topology: Topology | None = None,
    plan: PartitionPlan | None = None,
    faults: FaultSpec | None = None,
    fault_seed: int = 0,
    recovery: str | None = None,
    backend: str | None = None,
    executor: str | None = None,
    obs: "Observability | None" = None,
    supervise: "SuperviseSpec | None" = None,
) -> SchemeResult:
    """Run one scheme on a fresh simulated machine.

    Parameters mirror the paper's experimental knobs.  ``plan`` overrides
    ``partition``/``n_procs`` when a pre-built (e.g. bin-packing) plan is
    wanted.  ``faults`` attaches a deterministic fault injector (seeded
    with ``fault_seed``); the result's ``fault_summary`` then reports what
    the injector did and all retries are charged through the cost model.

    ``recovery`` (``"host-resend"`` | ``"peer-redistribute"``) runs the
    scheme through the fail-stop recovery manager: rank deaths from the
    fault plan's ``fail_stop`` spec are detected, repaired on the
    surviving membership and reported in ``result.recovery_summary``.
    Requires ``faults``; a pre-built ``plan`` cannot be combined with it
    (recovery re-plans for the survivors).

    ``backend`` selects the kernel backend (``"python"`` | ``"numpy"``)
    the hot paths run on; ``None`` inherits the process default (numpy).
    Results are byte-identical either way (DESIGN.md §"Kernel backends").

    ``executor`` selects where rank tasks physically run (``"sim"`` |
    ``"process"``); ``None`` inherits the executor layer's default
    (``REPRO_EXECUTOR``, else sim).  Results — traces, charges, wire
    bytes — are byte-identical either way (DESIGN.md §"Execution
    tiers"); worker processes are torn down before this returns.

    ``obs`` attaches an :class:`~repro.obs.spans.Observability` recorder:
    spans, a metrics registry and per-rank communication totals are then
    collected during the run, self-verified against the trace ledger, and
    snapshotted into ``result.observability``.  ``None`` (default) runs
    fully un-instrumented — byte-identical to pre-observability builds
    (docs/OBSERVABILITY.md).

    ``supervise`` attaches a :class:`~repro.exec.SuperviseSpec` to the
    run's executor session: real worker crashes and hangs are then healed
    by restart-and-replay (degrading to the inline sim executor once the
    budget is spent) and reported in ``result.supervisor_summary``.  Only
    meaningful with the process executor; ``None`` inherits an enclosing
    :func:`~repro.exec.use_supervision` scope, else runs unsupervised.
    """
    method = partition if isinstance(partition, PartitionMethod) else get_partition(partition)
    if plan is None:
        plan = method.plan(matrix.shape, n_procs)
    request = RunRequest(
        scheme=scheme,
        n=matrix.shape[0],
        n_procs=plan.n_procs,
        partition=method.name,
        compression=compression,
        seed=0,
        cost=cost if cost is not None else sp2_cost_model(),
        faults=faults,
        fault_seed=fault_seed,
        recovery=recovery,
        backend=backend,
        executor=executor,
        supervise=supervise,
    )
    with RunSession() as session:
        return session.run(
            request, matrix=matrix, method=method, plan=plan,
            topology=topology, obs=obs,
        )
