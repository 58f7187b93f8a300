"""The one run description and the reusable ``RunRequest → SchemeResult`` session.

:class:`RunRequest` is the only description of a run anywhere in the
repo: the CLI's ``run``, the sweep manifests (every grid expands to
``RunRequest``\\ s), the run service and the one-shot driver all build
one.  :meth:`RunRequest.from_dict` is the single strict validator for
user input — unknown keys are rejected with the sorted key listing,
names are checked against the registries, and every failure is one
friendly line (:class:`RequestError`).  :meth:`RunRequest.params` and
:attr:`RunRequest.cell_id` are the canonical identity the sweep store
records.

Every way of running a scheme funnels through one :class:`RunSession`.
A session owns the *warm* state that used to be rebuilt from scratch per
call:

* the generated test matrices (one ``random_sparse`` sample per
  ``(shape, sparse_ratio, seed)``, the last :data:`MATRIX_CACHE_SIZE`
  kept), so the paper's
  "same sample shared by all schemes in a cell" convention costs one
  generation instead of three;
* the simulated machines (one per :meth:`RunRequest.machine_key`), so
  the process executor's rank workers stay alive across clean runs
  instead of being forked and torn down per cell.

Reuse can never change a result: a reused machine is :meth:`~repro.
machine.machine.Machine.reset` before every run (the documented
replay-identical operation), and any request that carries per-run
machine state — a fault injector, a recovery policy, active supervision
or an explicit topology — gets a fresh machine.  An observability
recorder is per-run state too, but it lives outside the machine: the run
binds it to the machine's fresh trace and puts ``NULL_OBS`` back when it
ends, so an observed run takes the same warm path as the traffic it
observes.  ``tests/sweep/test_session.py`` pins the equivalence against
per-call :func:`~repro.runtime.driver.run_scheme` runs on both
executors.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from ..core.base import CompressedLocal, SchemeResult
from ..core.registry import (
    COMPRESSIONS,
    PARTITIONS,
    SCHEMES,
    get_compression,
    get_partition,
    get_scheme,
)
from ..faults.injector import FaultInjector
from ..faults.spec import FaultSpec
from ..machine.cost_model import CostModel, sp2_cost_model
from ..machine.machine import Machine
from ..machine.topology import Topology
from ..partition.base import PartitionMethod, PartitionPlan
from ..partition.mesh2d import Mesh2DPartition
from ..sparse.coo import COOMatrix
from ..sparse.generators import random_sparse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.supervise import SuperviseSpec
    from ..obs.spans import Observability

__all__ = ["RequestError", "RunRequest", "RunSession", "canonical_json"]

#: generated matrices a session keeps (LRU).  The table grids revisit the
#: same ``(n, ratio, seed)`` once per scheme, so a handful of slots
#: removes two thirds of the generation work.
MATRIX_CACHE_SIZE = 4

#: every key :meth:`RunRequest.from_dict` accepts
REQUEST_KEYS = (
    "scheme",
    "n",
    "n_procs",
    "partition",
    "compression",
    "sparse_ratio",
    "seed",
    "mesh_shape",
    "faults",
    "fault_seed",
    "recovery",
    "backend",
    "executor",
    "supervise",
)


def canonical_json(obj: Any) -> str:
    """The canonical encoding ids, hashes and the sweep store are defined
    over: sorted keys, no whitespace — byte-stable under key reordering."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class RequestError(ValueError):
    """A run description failed validation (message is one friendly line)."""


@dataclass(frozen=True)
class RunRequest:
    """One run: the paper's six axes plus fault, recovery and placement knobs.

    ``mesh_shape`` selects an explicit processor mesh for the ``mesh2d``
    partition (``None`` = most-square factorisation of ``n_procs``).
    ``faults``/``fault_seed`` re-derive the run under a fault plan — the
    reliability-vs-cost extension (DESIGN.md §"Fault model").  The
    constructor does not validate; user input goes through
    :meth:`from_dict`.
    """

    scheme: str
    n: int
    n_procs: int
    partition: str = "row"
    compression: str = "crs"
    sparse_ratio: float = 0.1
    seed: int = 0
    mesh_shape: tuple[int, int] | None = None
    cost: CostModel = field(default_factory=sp2_cost_model)
    faults: FaultSpec | None = None
    fault_seed: int = 0
    #: fail-stop recovery policy ("host-resend" | "peer-redistribute");
    #: None runs without the recovery manager (a fail-stop death then
    #: surfaces as DeadRankError)
    recovery: str | None = None
    #: kernel backend ("python" | "numpy"); None = process default
    backend: str | None = None
    #: executor ("sim" | "process"); None = the executor layer's default
    executor: str | None = None
    #: real-fault supervision spec; None = the supervision layer's
    #: default (REPRO_SUPERVISE, else off).  Process executor only.
    supervise: "SuperviseSpec | None" = None

    def partition_method(self) -> PartitionMethod:
        if self.partition == "mesh2d":
            return Mesh2DPartition(self.mesh_shape)
        return get_partition(self.partition)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def params(self) -> dict[str, Any]:
        """The canonical JSON-compatible parameter dict (cell id + store
        form).  Placement (backend, executor, supervision) never changes
        a measured result, so it is not part of the identity."""
        out: dict[str, Any] = {
            "scheme": self.scheme,
            "partition": self.partition,
            "compression": self.compression,
            "n": self.n,
            "n_procs": self.n_procs,
            "sparse_ratio": self.sparse_ratio,
            "seed": self.seed,
        }
        if self.mesh_shape is not None:
            out["mesh_shape"] = list(self.mesh_shape)
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
            out["fault_seed"] = self.fault_seed
        return out

    @property
    def cell_id(self) -> str:
        """16-hex-digit stable ID: SHA-256 prefix of the canonical params."""
        import hashlib  # loads libcrypto: keep it off the plain run path

        digest = hashlib.sha256(canonical_json(self.params()).encode("ascii"))
        return digest.hexdigest()[:16]

    def machine_key(self) -> tuple[Any, ...]:
        """The warm-machine signature ``(p, cost, backend, executor)``:
        runs with equal keys can share one machine (and one service
        session)."""
        return (self.n_procs, self.cost, self.backend, self.executor)

    # ------------------------------------------------------------------
    # the validator
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], *, defaults: Mapping[str, Any] | None = None
    ) -> "RunRequest":
        """Validate user input into a request; raises :class:`RequestError`.

        ``defaults`` fills keys ``data`` does not carry (a server's or the
        environment's placement defaults).  ``None`` values count as
        absent.  ``faults``/``supervise`` are inline spec objects: a
        :class:`~repro.faults.spec.FaultSpec` / :class:`~repro.exec.
        SuperviseSpec` or the JSON mapping of one.
        """
        if not isinstance(data, Mapping):
            raise RequestError(f"run request must be an object, got {data!r}")
        unknown = sorted(set(data) - set(REQUEST_KEYS))
        if unknown:
            raise RequestError(
                f"unknown run request key(s) {unknown}; "
                f"known keys: {sorted(REQUEST_KEYS)}"
            )
        given = {k: v for k, v in (defaults or {}).items() if v is not None}
        given.update((k, v) for k, v in data.items() if v is not None)
        for key in ("scheme", "n", "n_procs"):
            if key not in given:
                raise RequestError(f"run request is missing required key {key!r}")

        partition = _name(given, "partition", "row", PARTITIONS, "partition method")
        n_procs = _int(given, "n_procs", None, minimum=1)
        faults = _spec(given, "faults", FaultSpec)
        recovery = given.get("recovery")
        if recovery is not None:
            from ..recovery.manager import POLICIES

            if recovery not in POLICIES:
                raise RequestError(
                    f"unknown recovery policy {recovery!r}; "
                    f"available: {sorted(POLICIES)}"
                )
            if faults is None:
                raise RequestError("'recovery' needs a fault plan ('faults')")
        from ..exec import SuperviseSpec, get_executor
        from ..kernels import get_backend

        executor = _registered(given, "executor", get_executor)
        supervise = _spec(given, "supervise", SuperviseSpec)
        if supervise is not None and executor != "process":
            raise RequestError(
                "'supervise' needs the process executor "
                f"(current: {executor or 'sim'})"
            )
        return cls(
            scheme=_name(given, "scheme", None, SCHEMES, "scheme"),
            n=_int(given, "n", None, minimum=1),
            n_procs=n_procs,
            partition=partition,
            compression=_name(
                given, "compression", "crs", COMPRESSIONS, "compression method"
            ),
            sparse_ratio=_ratio(given.get("sparse_ratio", 0.1)),
            seed=_int(given, "seed", 0, minimum=0),
            mesh_shape=_mesh(given.get("mesh_shape"), partition, n_procs),
            faults=faults,
            fault_seed=_int(given, "fault_seed", 0),
            recovery=recovery,
            backend=_registered(given, "backend", get_backend),
            executor=executor,
            supervise=supervise,
        )


# ----------------------------------------------------------------------
# field validators (one message per rule, whoever the caller is)
# ----------------------------------------------------------------------
def _int(given: Mapping[str, Any], key: str, default: int | None,
         *, minimum: int | None = None) -> int:
    value = given.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise RequestError(f"{key!r} must be >= {minimum}, got {value}")
    return value


def _name(given: Mapping[str, Any], key: str, default: str | None,
          registry: Mapping[str, Any], what: str) -> str:
    value = given.get(key, default)
    if not isinstance(value, str):
        raise RequestError(f"{key!r} must be a string, got {value!r}")
    if value.lower() not in registry:
        raise RequestError(
            f"unknown {what} {value!r}; available: {sorted(registry)}"
        )
    return value.lower()


def _ratio(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"'sparse_ratio' must be a number, got {value!r}")
    value = float(value)
    if not 0.0 < value <= 1.0:
        raise RequestError(f"'sparse_ratio' must be in (0, 1], got {value}")
    return value


def _mesh(raw: Any, partition: str, n_procs: int) -> tuple[int, int] | None:
    if raw is None:
        return None
    if partition != "mesh2d":
        raise RequestError(
            "'mesh_shape' is only meaningful with the 'mesh2d' partition"
        )
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or any(isinstance(s, bool) or not isinstance(s, int) or s < 1 for s in raw)
    ):
        raise RequestError(
            f"'mesh_shape' must be [rows, cols] with positive integers, got {raw!r}"
        )
    if raw[0] * raw[1] != n_procs:
        raise RequestError(
            f"mesh_shape {list(raw)} does not factor {n_procs} processors"
        )
    return (raw[0], raw[1])


def _registered(given: Mapping[str, Any], key: str, lookup: Any) -> str | None:
    """A backend/executor name checked against its registry."""
    name = given.get(key)
    if name is None:
        return None
    if not isinstance(name, str):
        raise RequestError(f"{key!r} must be a string, got {name!r}")
    try:
        lookup(name)
    except ValueError as exc:
        raise RequestError(str(exc)) from None
    return name


def _spec(given: Mapping[str, Any], key: str, spec_type: Any) -> Any:
    """An inline spec: an instance, or the JSON mapping of one."""
    value = given.get(key)
    if value is None or isinstance(value, spec_type):
        return value
    if not isinstance(value, Mapping):
        raise RequestError(
            f"{key!r} must be a {spec_type.__name__} object, got {value!r}"
        )
    try:
        return spec_type.from_dict(value)
    except (TypeError, ValueError) as exc:
        raise RequestError(f"{key!r} is invalid: {exc}") from None


class RunSession:
    """A warm, reusable ``RunRequest → SchemeResult`` entry point.

    Keeps one machine per :meth:`RunRequest.machine_key` warm between
    runs; requests with faults, recovery, supervision or an explicit
    topology get a fresh machine, torn down when the run ends.
    """

    def __init__(self) -> None:
        self._matrices: OrderedDict[
            tuple[tuple[int, int], float, int], COOMatrix
        ] = OrderedDict()
        self._machines: dict[tuple[Any, ...], Machine] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # warm state
    # ------------------------------------------------------------------
    def matrix_for(self, request: RunRequest) -> COOMatrix:
        """The request's test sample, generated once per (shape, s, seed)."""
        key = ((request.n, request.n), request.sparse_ratio, request.seed)
        cached = self._matrices.get(key)
        if cached is not None:
            self._matrices.move_to_end(key)
            return cached
        matrix = random_sparse(key[0], request.sparse_ratio, seed=request.seed)
        self._matrices[key] = matrix
        while len(self._matrices) > MATRIX_CACHE_SIZE:
            self._matrices.popitem(last=False)
        return matrix

    def _machine_for(
        self,
        request: RunRequest,
        n_procs: int,
        injector: FaultInjector | None,
        topology: Topology | None,
    ) -> tuple[Machine, bool]:
        """``(machine, reused)`` for one run; see class docstring."""
        from ..exec import current_supervision

        reusable = (
            injector is None
            and request.recovery is None
            and topology is None
            and request.supervise is None
            and current_supervision() is None
        )
        if not reusable:
            machine = Machine(
                n_procs, cost=request.cost, topology=topology, faults=injector,
                backend=request.backend, executor=request.executor,
            )
            return machine, False
        key = request.machine_key()
        machine = self._machines.get(key)
        if machine is None:
            machine = Machine(
                n_procs, cost=request.cost,
                backend=request.backend, executor=request.executor,
            )
            self._machines[key] = machine
        else:
            # the documented replay-identical operation: memories,
            # mailboxes, trace and worker stores are all cleared
            machine.reset()
        return machine, True

    # ------------------------------------------------------------------
    # the entry point
    # ------------------------------------------------------------------
    def run(
        self,
        request: RunRequest,
        *,
        matrix: COOMatrix | None = None,
        method: PartitionMethod | None = None,
        plan: PartitionPlan | None = None,
        topology: Topology | None = None,
        obs: "Observability | None" = None,
    ) -> SchemeResult:
        """Execute one request and return its :class:`SchemeResult`.

        ``matrix`` overrides the generated sample (the grids share one
        sample across schemes); ``method``/``plan``/``topology``/``obs``
        are the driver-level overrides :func:`~repro.runtime.driver.
        run_scheme` exposes, passed through unchanged.
        """
        if self._closed:
            raise RuntimeError("RunSession is closed")
        if matrix is None:
            matrix = self.matrix_for(request)
        if method is None:
            method = request.partition_method()
        if plan is None:
            plan = method.plan(matrix.shape, request.n_procs)
        injector = (
            FaultInjector(request.faults, seed=request.fault_seed)
            if request.faults is not None
            else None
        )
        machine, reused = self._machine_for(
            request, plan.n_procs, injector, topology
        )
        comp: type[CompressedLocal] = get_compression(request.compression)
        from ..exec import use_supervision
        from ..obs.spans import NULL_OBS

        try:
            if obs is not None:
                # bound to this run's fresh trace only (one recorder per run)
                machine.obs = obs
                obs.attach(machine)
            # use_supervision(None) is a no-op scope: the ambient default
            # (REPRO_SUPERVISE) stays in force
            with use_supervision(request.supervise):
                if request.recovery is not None:
                    if injector is None:
                        raise ValueError(
                            "recovery needs a fault plan (faults=...)"
                        )
                    from ..recovery.manager import run_with_recovery

                    return run_with_recovery(
                        get_scheme(request.scheme), machine, matrix, method,
                        comp, policy=request.recovery,
                    )
                return get_scheme(request.scheme).run(machine, matrix, plan, comp)
        finally:
            machine.obs = NULL_OBS
            if not reused:
                machine.shutdown()  # rank workers die with the run

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down every warm machine (idempotent)."""
        for machine in self._machines.values():
            machine.shutdown()
        self._machines.clear()
        self._matrices.clear()
        self._closed = True

    def __enter__(self) -> "RunSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug nicety
        return (
            f"RunSession(machines={len(self._machines)}, "
            f"matrices={len(self._matrices)}, closed={self._closed})"
        )
