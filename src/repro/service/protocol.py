"""The JSONL wire protocol: strict request parsing + typed response lines.

One request is one JSON object on one line.  The run fields are exactly
the keys :meth:`RunRequest.from_dict <repro.runtime.session.RunRequest.
from_dict>` accepts — the one validator the CLI and the sweep manifests
share — so a bad value gets the same single friendly line here as
anywhere else; the payload is *user* input arriving over a socket, not
programmer input.  The protocol adds only ``id``, ``op`` and ``observe``.

Request keys (``op: "run"``, the default)::

    {"id": "r1", "scheme": "ed", "n": 120, "n_procs": 4,
     "partition": "row", "compression": "crs", "sparse_ratio": 0.1,
     "seed": 0, "mesh_shape": [2, 2], "backend": "numpy",
     "executor": "sim", "faults": {...}, "fault_seed": 0,
     "recovery": "host-resend", "supervise": {...}, "observe": true}

``faults`` / ``supervise`` are *inline* :class:`~repro.faults.spec.
FaultSpec` / :class:`~repro.exec.SuperviseSpec` objects (the same JSON
the CLI loads from files).  ``op`` may also be ``"ping"``, ``"stats"``
or ``"metrics"`` — control operations that carry only ``id``.

Response lines are typed by a ``"type"`` key: ``result`` (the
:func:`~repro.machine.export.result_to_dict` payload under
``"result"``), ``error`` (code 400/500 + one friendly line), ``reject``
(code 429, queue full), ``pong``, ``stats`` and ``metrics``.  Lines are
canonical JSON (sorted keys, compact separators), so a served result is
byte-stable across processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from ..runtime.session import RequestError, RunRequest

__all__ = [
    "ProtocolError",
    "ServiceRequest",
    "encode_line",
    "error_response",
    "parse_request_line",
    "reject_response",
    "result_response",
]

#: control operations that carry no run parameters
CONTROL_OPS = ("metrics", "ping", "stats")


class ProtocolError(ValueError):
    """A request line failed validation (message is one friendly line).

    ``request_id`` carries the client's ``id`` when the line parsed far
    enough to have one, so the error response can still be correlated.
    """

    def __init__(self, message: str, *, request_id: str | None = None) -> None:
        super().__init__(message)
        self.request_id = request_id


@dataclass(frozen=True)
class ServiceRequest:
    """One validated request: a control op, or a run with its config."""

    id: str
    op: str
    #: the fully resolved run request (``None`` for control ops); server
    #: defaults for backend/executor are already applied
    config: RunRequest | None = None
    #: attach a per-run Observability recorder and ship its snapshot
    #: inside the result payload
    observe: bool = False


def parse_request_line(
    line: str | bytes,
    *,
    seq: int = 0,
    default_backend: str | None = None,
    default_executor: str | None = None,
) -> ServiceRequest:
    """Validate one wire line into a :class:`ServiceRequest`.

    ``seq`` numbers the connection's requests so a line without an
    ``id`` still gets a correlatable one (``"req-<seq>"``).
    ``default_backend`` / ``default_executor`` are the *server's*
    placement defaults (``repro serve --executor …``); an explicit key in
    the request always wins.  Raises :class:`ProtocolError` with one
    friendly line on any malformation.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(
            f"request is not valid JSON (column {exc.colno}: {exc.msg})"
        ) from None
    if not isinstance(data, dict):
        raise ProtocolError(f"request must be a JSON object, got {data!r}")

    raw_id = data.pop("id", f"req-{seq}")
    if isinstance(raw_id, bool) or not isinstance(raw_id, (str, int)):
        raise ProtocolError(f"request key 'id' must be a string, got {raw_id!r}")
    rid = str(raw_id)

    op = data.pop("op", "run")
    if op in CONTROL_OPS:
        if data:
            raise ProtocolError(
                f"unknown {op} request key(s) {sorted(data)}; "
                f"known keys: ['id', 'op']",
                request_id=rid,
            )
        return ServiceRequest(id=rid, op=op)
    if op != "run":
        raise ProtocolError(
            f"unknown op {op!r}; available: {sorted(('run',) + CONTROL_OPS)}",
            request_id=rid,
        )

    observe = data.pop("observe", False)
    if not isinstance(observe, bool):
        raise ProtocolError(
            f"request key 'observe' must be a boolean, got {observe!r}",
            request_id=rid,
        )
    try:
        config = RunRequest.from_dict(
            data,
            defaults={"backend": default_backend, "executor": default_executor},
        )
    except RequestError as exc:
        raise ProtocolError(str(exc), request_id=rid) from None
    return ServiceRequest(id=rid, op="run", config=config, observe=observe)


# ----------------------------------------------------------------------
# response lines
# ----------------------------------------------------------------------
def encode_line(obj: Mapping[str, Any]) -> bytes:
    """One canonical-JSON response line (sorted keys, trailing newline)."""
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def result_response(request_id: str, payload: Mapping[str, Any]) -> dict[str, Any]:
    """A completed run: the ``result_to_dict`` payload, verbatim."""
    return {"type": "result", "id": request_id, "result": dict(payload)}


def error_response(
    request_id: str | None, message: str, *, code: int = 400
) -> dict[str, Any]:
    """A failed request — one friendly line, never a traceback."""
    out: dict[str, Any] = {"type": "error", "code": code, "error": message}
    if request_id is not None:
        out["id"] = request_id
    return out


def reject_response(request_id: str, queue_size: int) -> dict[str, Any]:
    """Backpressure: the bounded queue is full (retry later)."""
    return {
        "type": "reject",
        "id": request_id,
        "code": 429,
        "error": f"queue full ({queue_size} requests pending); retry later",
    }

