"""Unified observability: spans, metrics and exporters for simulated runs.

The layer the ROADMAP's optimisation PRs measure against.  One
:class:`Observability` recorder per run is bound to that run's
:class:`~repro.machine.trace.TraceLog` and derives per-actor simulated
clocks and the ledger counters of a Prometheus-style metrics registry
from it whenever it is read, wraps the interesting regions (phases,
per-rank pack/send/recv/unpack, ack/retry cycles, checkpoint/rollback,
kernel dispatch) in hierarchical spans, and renders the result as a
Perfetto-loadable Chrome trace, Prometheus text, or a JSONL run log that
``repro inspect`` reads back.

Byte-transparency contract: with observability disabled (the default,
:data:`NULL_OBS`), the simulator's traces, wire bytes and cost charges
are identical to an un-instrumented build; with it enabled,
:meth:`Observability.verify_against_trace` asserts the metric totals
equal the :class:`~repro.machine.trace.TraceLog` breakdowns exactly —
both are reductions over the one event ledger.

Quickstart::

    from repro import run_scheme
    from repro.obs import Observability, write_chrome_trace

    obs = Observability(scheme="ed")
    r = run_scheme("ed", A, n_procs=16, obs=obs)
    write_chrome_trace(obs, "trace.json")      # open in ui.perfetto.dev
    print(obs.comm_matrix())                   # elements per rank pair
"""

from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    metrics_from_dict,
)
from .spans import (
    NULL_OBS,
    EventRecord,
    Observability,
    ObservabilityDriftError,
    ObsSnapshot,
    SpanRecord,
    actor_label,
)
from .exporters import (
    MACHINE_PID,
    SPAN_PID,
    RunLog,
    read_run_log,
    to_chrome_trace,
    to_prometheus_text,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from .inspect import (
    inspect_run_log,
    render_comm_matrix,
    render_metrics_summary,
    render_top_spans,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EventRecord",
    "Gauge",
    "Histogram",
    "MACHINE_PID",
    "Metric",
    "MetricsRegistry",
    "NULL_OBS",
    "Observability",
    "ObservabilityDriftError",
    "ObsSnapshot",
    "RunLog",
    "SPAN_PID",
    "SpanRecord",
    "actor_label",
    "inspect_run_log",
    "metrics_from_dict",
    "read_run_log",
    "render_comm_matrix",
    "render_metrics_summary",
    "render_top_spans",
    "to_chrome_trace",
    "to_prometheus_text",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
