"""Output checks: references computed outside the timed windows.

Each distinct request gets a one-shot ``run_scheme`` on the sim executor
before any timing.  That reference must itself match the digests pinned
in ``perfbench/golden.json``; a reference that does not match is
dropped, so every unit of its request fails.  A change that moves the
simulated ledger, or one byte of a local array, therefore fails the
benchmark even though the reference and the measured path move
together.

* Direct units compare a digest of the simulated ledger and of every
  local array with the reference's.
* Served replies and sweep records compare canonical JSON with
  ``result_to_dict`` of the reference.  An observed run carries an
  observability snapshot whose wall-clock fields differ from run to run;
  those fields alone are dropped before comparing.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from .workloads import WORKLOADS, Request

__all__ = [
    "GOLDEN", "canonical", "ledger_digest", "references", "run_request", "scrub_wall",
    "write_golden",
]

#: pinned digests of every distinct request's one-shot result
GOLDEN = Path(__file__).resolve().parents[1] / "golden.json"


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def ledger_digest(result: Any) -> str:
    """SHA-256 over the simulated ledger and every local array's bytes."""
    h = hashlib.sha256()
    ledger = (
        float(result.t_distribution).hex(), float(result.t_compression).hex(),
        int(result.wire_elements), int(result.n_messages),
        tuple(result.global_shape), int(result.global_nnz),
    )
    h.update(repr(ledger).encode())
    for local in result.locals_:
        h.update(repr((type(local).__name__, tuple(local.shape))).encode())
        for arr in (local.indptr, local.indices, local.values):
            a = np.ascontiguousarray(arr)
            h.update(a.dtype.str.encode())
            h.update(a.tobytes())
    return h.hexdigest()


def _payload_digest(result: Any) -> str:
    from repro.machine.export import result_to_dict

    return hashlib.sha256(canonical(result_to_dict(result)).encode()).hexdigest()


def scrub_wall(obj: Any) -> Any:
    """``obj`` without its wall-clock (``wall_*``) fields."""
    if isinstance(obj, dict):
        return {k: scrub_wall(v) for k, v in obj.items() if not str(k).startswith("wall_")}
    if isinstance(obj, list):
        return [scrub_wall(v) for v in obj]
    return obj


def _golden_key(r: Request) -> str:
    return f"{r.scheme}/{r.partition}/n{r.n}/p{r.n_procs}/s{r.sparse_ratio}/seed{r.seed}"


def _one_shot(
    requests: Iterable[Request], observe: bool
) -> Iterator[tuple[Request, Any]]:
    from repro.obs.spans import Observability
    from repro.runtime.driver import run_scheme
    from repro.sparse.generators import random_sparse

    matrices: dict[tuple[Any, ...], Any] = {}
    seen: set[tuple[Any, ...]] = set()
    for r in requests:
        if r.key in seen:
            continue
        seen.add(r.key)
        mkey = (r.n, r.sparse_ratio, r.seed)
        if mkey not in matrices:
            matrices[mkey] = random_sparse((r.n, r.n), r.sparse_ratio, seed=r.seed)
        obs = Observability(scheme=r.scheme, n=r.n, served=True) if observe else None
        yield r, run_scheme(
            r.scheme, matrices[mkey], partition=r.partition, n_procs=r.n_procs,
            compression="crs", backend="numpy", executor="sim", obs=obs,
        )


def references(
    requests: Iterable[Request], errors: list[str], *, observe: bool = False
) -> Iterator[tuple[Request, Any]]:
    """``(request, result)`` of a one-shot run for each distinct request
    whose ledger (and, unobserved, whose whole payload) matches
    golden.json; each mismatch is described in ``errors`` instead."""
    golden = json.loads(GOLDEN.read_text())
    for r, result in _one_shot(requests, observe):
        pinned = golden.get(_golden_key(r), {})
        ok = pinned.get("ledger") == ledger_digest(result) and (
            observe or pinned.get("payload") == _payload_digest(result)
        )
        if ok:
            yield r, result
        else:
            errors.append(f"{_golden_key(r)}: one-shot result differs from golden.json")


def write_golden() -> int:
    """Pin the current program's one-shot results for every workload."""
    requests = [r for w in WORKLOADS.values() for r in w.requests]
    golden = {
        _golden_key(r): {"ledger": ledger_digest(res), "payload": _payload_digest(res)}
        for r, res in _one_shot(requests, observe=False)
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return len(golden)


def run_request(request: Request) -> Any:
    """The ``RunRequest`` a direct caller hands ``RunSession.run``."""
    from repro.runtime.session import RunRequest

    return RunRequest(
        scheme=request.scheme, n=request.n, n_procs=request.n_procs,
        partition=request.partition, compression="crs",
        sparse_ratio=request.sparse_ratio, seed=request.seed,
        backend="numpy", executor="sim",
    )
