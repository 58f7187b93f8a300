"""Exporters: Chrome trace-event JSON, Prometheus text, JSONL run logs.

Three renderings of one :class:`~repro.obs.spans.Observability` recorder:

* :func:`to_chrome_trace` — the Chrome trace-event format (the JSON
  Perfetto and ``chrome://tracing`` load).  Machine events become ``"X"``
  complete events on **pid 0**, one ``tid`` lane per actor mirroring the
  paper's host-serial / processor-parallel model (host = lane 0, rank
  *r* = lane *r*+1); zero-duration faults become ``"i"`` instants;
  hierarchical spans become ``"X"`` events on **pid 1** over the global
  simulated clock, so nesting renders as flame-graph stacking;
  ``supervisor.*`` spans (real-fault restarts/degradations) get their own
  lane (``tid`` 1 under pid 1), present only on supervised runs.
* :func:`to_prometheus_text` — the Prometheus exposition format
  (``# HELP`` / ``# TYPE`` headers, escaped labels, cumulative
  ``_bucket{le=…}`` / ``_sum`` / ``_count`` for histograms).
* :func:`write_jsonl` / :func:`read_run_log` — a typed-line JSONL run
  log (``meta`` / ``event`` / ``span`` / ``metrics`` lines) that
  round-trips losslessly; ``repro inspect`` reads it back.

All timestamps in the Chrome export are **simulated** time: the paper's
cost model is the clock being visualised, not the wall clock (wall-clock
span durations ride along in the args of each span event).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .metrics import Histogram, MetricsRegistry, metrics_from_dict
from .spans import (
    EventRecord,
    Observability,
    SpanRecord,
    actor_label,
    comm_matrix_from,
    top_spans_from,
)

__all__ = [
    "RunLog",
    "read_run_log",
    "to_chrome_trace",
    "to_prometheus_text",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]

#: pid of the per-actor machine-event lanes in the Chrome export
MACHINE_PID = 0
#: pid of the hierarchical span lanes in the Chrome export
SPAN_PID = 1
#: tid (under SPAN_PID) of the real-fault supervisor lane — restarts and
#: degradations render beside, not inside, the algorithmic span stack
SUPERVISOR_TID = 1
#: tid (under SPAN_PID) of the sweep-orchestration lane — cell lifecycle
#: spans render beside the per-run algorithmic span stack
SWEEP_TID = 2


def _tid_for_actor(actor: int) -> int:
    """Lane number for one actor: host -> 0, rank r -> r + 1."""
    return 0 if actor < 0 else actor + 1


def to_chrome_trace(obs: Observability) -> dict[str, Any]:
    """Render the recorder as a Chrome trace-event JSON object.

    The result is a dict with ``traceEvents`` (list of event objects
    obeying the ``ph``/``ts``/``pid``/``tid`` contract, timestamps in
    microseconds of *simulated* time), ``displayTimeUnit`` and the run
    metadata under ``otherData`` — exactly what Perfetto /
    ``chrome://tracing`` expect from a JSON trace.
    """
    events: list[dict[str, Any]] = []
    records = obs.events
    spans = obs.spans

    # -- metadata: name the processes and the per-actor lanes ------------
    events.append({
        "ph": "M", "pid": MACHINE_PID, "tid": 0, "ts": 0,
        "name": "process_name",
        "args": {"name": "machine (simulated clock)"},
    })
    events.append({
        "ph": "M", "pid": SPAN_PID, "tid": 0, "ts": 0,
        "name": "process_name",
        "args": {"name": "spans (global simulated clock)"},
    })
    actors = {e.actor for e in records}
    if obs.n_procs is not None:  # name every rank's lane, busy or not
        actors.update(range(obs.n_procs))
    for actor in sorted(actors):
        lane = "host (serial)" if actor < 0 else f"rank {actor}"
        events.append({
            "ph": "M", "pid": MACHINE_PID, "tid": _tid_for_actor(actor),
            "ts": 0, "name": "thread_name", "args": {"name": lane},
        })
    events.append({
        "ph": "M", "pid": SPAN_PID, "tid": 0, "ts": 0,
        "name": "thread_name", "args": {"name": "span stack"},
    })
    # supervisor lane metadata only when supervisor spans exist, so
    # unsupervised exports stay byte-identical to earlier builds
    if any(s.name.startswith("supervisor.") for s in spans):
        events.append({
            "ph": "M", "pid": SPAN_PID, "tid": SUPERVISOR_TID, "ts": 0,
            "name": "thread_name", "args": {"name": "supervisor"},
        })
    # likewise the sweep-orchestration lane: only manifests when a sweep
    # actually ran under this recorder
    if any(s.name.startswith("sweep.") for s in spans):
        events.append({
            "ph": "M", "pid": SPAN_PID, "tid": SWEEP_TID, "ts": 0,
            "name": "thread_name", "args": {"name": "sweep"},
        })

    # -- machine events: one lane per actor ------------------------------
    for rec in records:
        args: dict[str, Any] = {
            "phase": rec.phase, "kind": rec.kind, "quantity": rec.quantity,
        }
        if rec.src is not None:
            args["src"] = actor_label(rec.src)
        if rec.dst is not None:
            args["dst"] = actor_label(rec.dst)
        base = {
            "name": rec.label or rec.kind,
            "cat": f"{rec.phase},{rec.kind}",
            "pid": MACHINE_PID,
            "tid": _tid_for_actor(rec.actor),
            "ts": rec.ts_ms * 1000.0,  # ms -> µs
            "args": args,
        }
        if rec.dur_ms <= 0.0:
            events.append({**base, "ph": "i", "s": "t"})
        else:
            events.append({**base, "ph": "X", "dur": rec.dur_ms * 1000.0})

    # -- spans: flame-graph nesting over the global simulated clock ------
    for span in spans:
        if not span.closed:
            continue
        args = {str(k): v for k, v in span.labels.items()}
        args["wall_ms"] = span.wall_elapsed_s * 1000.0
        args["n_events"] = span.n_events
        supervisor = span.name.startswith("supervisor.")
        sweep = span.name.startswith("sweep.")
        if supervisor:
            tid, cat = SUPERVISOR_TID, "supervisor"
        elif sweep:
            tid, cat = SWEEP_TID, "sweep"
        else:
            tid, cat = 0, "span"
        events.append({
            "name": span.name,
            "cat": cat,
            "ph": "X",
            "pid": SPAN_PID,
            "tid": tid,
            "ts": span.sim_start_ms * 1000.0,
            "dur": span.sim_elapsed_ms * 1000.0,
            "args": args,
        })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(obs.meta),
    }


def write_chrome_trace(obs: Observability, path: str | Path) -> Path:
    """Write :func:`to_chrome_trace` output to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(obs), indent=1) + "\n")
    return path


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus exposition rules."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label(str(v))}"' for k, v in labels.items()]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def to_prometheus_text(metrics: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters/gauges emit one sample line per label set; histograms emit
    cumulative ``_bucket{le=…}`` lines (ending at ``le="+Inf"``) plus
    ``_sum`` and ``_count`` — the exact shape a Prometheus scrape of a
    real client library produces.
    """
    lines: list[str] = []
    for metric in metrics.collect():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for key in sorted(metric.samples):
                labels = dict(key)
                sample = metric.samples[key]
                cumulative = 0
                bounds = list(metric.buckets) + [math.inf]
                for bound, count in zip(bounds, sample["bucket_counts"]):
                    cumulative += count
                    le = 'le="' + _format_value(float(bound)) + '"'
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_format_labels(labels, le)} {cumulative}"
                    )
                lines.append(
                    f"{metric.name}_sum{_format_labels(labels)} "
                    f"{_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{metric.name}_count{_format_labels(labels)} "
                    f"{sample['count']}"
                )
        else:
            for key in sorted(metric.samples):
                labels = dict(key)
                lines.append(
                    f"{metric.name}{_format_labels(labels)} "
                    f"{_format_value(metric.samples[key])}"
                )
    return "\n".join(lines) + "\n"


def write_prometheus(obs: Observability, path: str | Path) -> Path:
    """Write the recorder's registry as Prometheus text; returns the path."""
    path = Path(path)
    path.write_text(to_prometheus_text(obs.all_metrics()))
    return path


# ---------------------------------------------------------------------------
# JSONL run logs (read back by `repro inspect`)
# ---------------------------------------------------------------------------

def write_jsonl(obs: Observability, path: str | Path) -> Path:
    """Write the full recorder state as a typed-line JSONL run log.

    Line types: one ``meta`` header, one ``event`` line per machine
    event, one ``span`` line per closed span, one trailing ``metrics``
    line holding the whole registry snapshot.  :func:`read_run_log`
    round-trips the file.
    """
    path = Path(path)
    records, spans = obs.events, obs.spans
    with path.open("w") as fh:
        fh.write(json.dumps({
            "type": "meta",
            "meta": dict(obs.meta),
            "sim_time_ms": obs.sim_time_ms,
            "n_events": len(records),
            "n_spans": len(spans),
        }) + "\n")
        for rec in records:
            fh.write(json.dumps({
                "type": "event",
                "phase": rec.phase, "kind": rec.kind, "actor": rec.actor,
                "ts_ms": rec.ts_ms, "dur_ms": rec.dur_ms,
                "quantity": rec.quantity, "label": rec.label,
                "src": rec.src, "dst": rec.dst,
            }) + "\n")
        for span in spans:
            fh.write(json.dumps({"type": "span", **span.to_dict()}) + "\n")
        fh.write(json.dumps({
            "type": "metrics", "metrics": obs.all_metrics().to_dict(),
        }) + "\n")
    return path


@dataclass
class RunLog:
    """A parsed JSONL run log (what ``repro inspect`` works from)."""

    meta: dict[str, Any] = field(default_factory=dict)
    sim_time_ms: float = 0.0
    events: list[EventRecord] = field(default_factory=list)
    spans: list[SpanRecord] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def comm_matrix(self) -> dict[str, dict[str, int]]:
        """Sender → receiver wire-element totals, from the metrics block."""
        return comm_matrix_from(self.metrics)

    def top_spans(self, n: int = 5) -> list[SpanRecord]:
        """The ``n`` spans with the largest simulated elapsed time."""
        return top_spans_from(self.spans, n)


def read_run_log(path: str | Path) -> RunLog:
    """Parse a :func:`write_jsonl` run log back into a :class:`RunLog`."""
    log = RunLog()
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                body = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from exc
            kind = body.get("type")
            if kind == "meta":
                log.meta = dict(body.get("meta", {}))
                log.sim_time_ms = float(body.get("sim_time_ms", 0.0))
            elif kind == "event":
                log.events.append(EventRecord(
                    phase=body["phase"], kind=body["kind"],
                    actor=int(body["actor"]), ts_ms=float(body["ts_ms"]),
                    dur_ms=float(body["dur_ms"]),
                    quantity=int(body["quantity"]), label=body.get("label", ""),
                    src=body.get("src"), dst=body.get("dst"),
                ))
            elif kind == "span":
                log.spans.append(SpanRecord(
                    span_id=int(body["span_id"]),
                    parent_id=body.get("parent_id"),
                    name=body["name"], labels=dict(body.get("labels", {})),
                    depth=int(body.get("depth", 0)),
                    sim_start_ms=float(body.get("sim_start_ms", 0.0)),
                    wall_start_s=0.0,
                    sim_elapsed_ms=float(body.get("sim_elapsed_ms", 0.0)),
                    wall_elapsed_s=float(body.get("wall_elapsed_s", 0.0)),
                    n_events=int(body.get("n_events", 0)),
                    closed=True,
                ))
            elif kind == "metrics":
                log.metrics = metrics_from_dict(body.get("metrics", {}))
            else:
                raise ValueError(
                    f"{path}:{lineno}: unknown run-log line type {kind!r}"
                )
    return log
