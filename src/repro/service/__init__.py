"""The throughput run service: ``repro serve`` / ``repro load``.

A stdlib-only :mod:`asyncio` server that turns the warm
:class:`~repro.runtime.session.RunSession` seam of PR 8 into a long-lived
endpoint: clients send one JSON object per line (a *scheme-run request* —
the fields of one :class:`~repro.runtime.session.RunRequest`),
and receive one JSON line back with the full
:func:`~repro.machine.export.result_to_dict` payload.  The scheduler
batches compatible requests onto a bounded pool of warm sessions keyed
``(p, cost, backend, executor)`` with LRU eviction, the queue is bounded
(overload answers a typed ``429``-style reject line, never an unbounded
buffer), and the PR 4 Prometheus exporter is mounted live at
``GET /metrics`` on the same listener.

Layering: the service sits *above* :mod:`repro.runtime` — it never
touches mailboxes, processors or wire buffers (reprolint RL002), and all
``repro_service_*`` telemetry rides the existing
:class:`~repro.obs.spans.Observability` layer.

See docs/SERVICE.md for the protocol spec, lifecycle and cookbook.
"""

from .client import LoadReport, ServiceClient, load_requests, run_load
from .protocol import (
    ProtocolError,
    ServiceRequest,
    encode_line,
    error_response,
    parse_request_line,
    reject_response,
    result_response,
)
from .queue import QueueFullError, RunScheduler, SessionCache
from .server import RunService

__all__ = [
    "LoadReport",
    "ProtocolError",
    "QueueFullError",
    "RunScheduler",
    "RunService",
    "ServiceClient",
    "ServiceRequest",
    "SessionCache",
    "encode_line",
    "error_response",
    "load_requests",
    "parse_request_line",
    "reject_response",
    "result_response",
    "run_load",
]
