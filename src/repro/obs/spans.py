"""Hierarchical spans + the per-run observability recorder.

The :class:`Observability` object is the one handle the rest of the system
talks to.  Bound to one run's :class:`~repro.machine.trace.TraceLog` it

* derives, each time it is read, every quantity the trace already holds
  — per-actor **simulated clocks**, the communication matrix, and the
  ledger counters of the metrics registry (bytes on wire per rank pair,
  retries per phase, …) — in one pass over the trace's events;
* hands out :meth:`span` context managers — hierarchical, labelled
  regions (``obs.span("ed.encode", rank=r)``) that mark the trace's
  event index when they open and close, plus the wall clock;
* double-books nothing: observability never records trace events, never
  charges costs, and never touches wire buffers.  With observability
  disabled (the default) every instrumentation site short-circuits on an
  ``enabled`` check and the simulator is byte-identical to an
  un-instrumented build — the golden-trace fixtures pin this.

The trace is the single source of truth; the recorder keeps no copy of
it.  :meth:`Observability.verify_against_trace` checks that the derived
counters, together with anything instrumentation recorded directly,
equal the :class:`~repro.machine.trace.PhaseBreakdown` totals exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, NamedTuple

from ..machine.topology import HOST
from ..machine.trace import Event, EventKind, Phase, TraceLog
from .metrics import MetricsRegistry, metrics_from_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.machine import Machine

__all__ = [
    "EventRecord",
    "NULL_OBS",
    "ObservabilityDriftError",
    "Observability",
    "ObsSnapshot",
    "SpanRecord",
    "actor_label",
]


def actor_label(actor: int) -> str:
    """Stable string label for a lane: ``"host"`` or the rank number."""
    return "host" if actor == HOST else str(actor)


class ObservabilityDriftError(AssertionError):
    """The metrics registry and the TraceLog breakdowns disagree.

    Raised by :meth:`Observability.verify_against_trace`; firing means an
    instrumentation site also counted a ledger quantity, or the recorder
    was checked against another run's trace — a bug in the observability
    layer, never in the cost accounting (the TraceLog is the source of
    truth).
    """


@dataclass(frozen=True)
class EventRecord:
    """One charged machine event on the simulated clock.

    ``ts_ms`` is the *actor's* accumulated simulated time when the event
    began (host-serial / processor-parallel, exactly the model the paper
    reasons about), so the Perfetto export can draw one lane per actor.
    """

    phase: str
    kind: str
    actor: int
    ts_ms: float
    dur_ms: float
    quantity: int
    label: str
    src: int | None
    dst: int | None


@dataclass
class SpanRecord:
    """One hierarchical instrumented region.

    Spans carry two clocks: the global simulated clock (sum of every
    charged millisecond, in event order — coherent nesting for the trace
    viewer) and the wall clock (``time.perf_counter``), plus the number
    of machine events charged while the span was open.
    """

    span_id: int
    parent_id: int | None
    name: str
    labels: dict[str, Any]
    depth: int
    sim_start_ms: float
    wall_start_s: float
    sim_elapsed_ms: float = 0.0
    wall_elapsed_s: float = 0.0
    n_events: int = 0
    closed: bool = False
    #: trace length when the span opened: with ``n_events`` it names the
    #: span's events, whose prefix sums give the simulated clocks (not
    #: part of :meth:`to_dict`)
    _event_mark: int = field(default=0, repr=False, compare=False)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible snapshot of the span."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "labels": {str(k): v for k, v in self.labels.items()},
            "depth": self.depth,
            "sim_start_ms": self.sim_start_ms,
            "sim_elapsed_ms": self.sim_elapsed_ms,
            "wall_elapsed_s": self.wall_elapsed_s,
            "n_events": self.n_events,
        }


class _NullSpan:
    """The shared no-op context manager handed out when obs is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Replay(NamedTuple):
    """One pass over a run's trace: everything the recorder derives."""

    events: list[EventRecord]
    #: global simulated ms charged before event ``i`` (``len(events) + 1``
    #: entries; the last is the run total)
    prefix_ms: list[float]
    actor_ms: dict[int, float]
    metrics: MetricsRegistry


class Observability:
    """Span + metrics recorder for one simulated machine run.

    Parameters
    ----------
    enabled:
        ``False`` builds the inert recorder (:data:`NULL_OBS` is the
        shared instance): every method returns immediately and
        :meth:`span` hands back one cached no-op context manager, so the
        golden paths pay a single attribute check.
    meta:
        Free-form run metadata (scheme, partition, n, p, …) carried into
        every exporter's header.
    """

    def __init__(self, *, enabled: bool = True, **meta: Any) -> None:
        self.enabled = enabled
        self.meta: dict[str, Any] = dict(meta)
        #: what instrumentation sites record directly (kernel calls,
        #: detections, …); :meth:`all_metrics` adds the ledger counters
        self.metrics = MetricsRegistry()
        self.n_procs: int | None = None
        #: the bound run's TraceLog (``None`` until attached)
        self.trace: TraceLog | None = None
        self._spans: list[SpanRecord] = []
        self._stack: list[SpanRecord] = []
        self._next_span_id = 1

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def attach(self, machine: "Machine") -> None:
        """Bind to ``machine``'s current trace; one recorder per run.

        Binding to a second trace (another machine, or the same machine
        after a reset) raises — the verification contract reads exactly
        one run's TraceLog, so totals from two runs must never mix.
        """
        if not self.enabled:
            return
        if self.trace is not None and self.trace is not machine.trace:
            raise ValueError(
                "this Observability is already bound to another run's "
                "trace; build a fresh recorder per run"
            )
        # trace lanes are physical ranks, whatever the machine's rank map
        self.n_procs = len(machine.procs)
        self.meta.setdefault("n_procs", self.n_procs)
        self.trace = machine.trace

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def span(self, name: str, **labels: Any):
        """A context manager recording a hierarchical, labelled region.

        Zero-cost when disabled: the same cached no-op object is returned
        for every call.  Example::

            with obs.span("ed.encode", rank=r):
                ...
        """
        if not self.enabled:
            return _NULL_SPAN
        return _LiveSpan(self, name, labels)

    def _n_events(self) -> int:
        return 0 if self.trace is None else len(self.trace)

    def _open_span(self, name: str, labels: dict[str, Any]) -> SpanRecord:
        record = SpanRecord(
            span_id=self._next_span_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            labels=labels,
            depth=len(self._stack),
            sim_start_ms=0.0,
            wall_start_s=time.perf_counter(),
            _event_mark=self._n_events(),
        )
        self._next_span_id += 1
        self._spans.append(record)
        self._stack.append(record)
        return record

    def _close_span(self, record: SpanRecord) -> None:
        # close any children left open (exception unwound past them)
        while self._stack and self._stack[-1] is not record:
            self._close_span(self._stack[-1])
        if self._stack and self._stack[-1] is record:
            self._stack.pop()
        record.wall_elapsed_s = time.perf_counter() - record.wall_start_s
        record.n_events = self._n_events() - record._event_mark
        record.closed = True

    def _timed_spans(self, prefix_ms: list[float]) -> list[SpanRecord]:
        """Every span, its simulated clocks read off the trace's prefix sums."""
        for span in self._spans:
            span.sim_start_ms = prefix_ms[span._event_mark]
            if span.closed:
                end = prefix_ms[span._event_mark + span.n_events]
                span.sim_elapsed_ms = end - span.sim_start_ms
        return self._spans

    @property
    def spans(self) -> list[SpanRecord]:
        """Every span opened so far, in opening order."""
        return self._timed_spans(self._replay().prefix_ms)

    # ------------------------------------------------------------------
    # the trace -> clocks + ledger counters, derived on every read
    # ------------------------------------------------------------------
    def _replay(self) -> _Replay:
        """One pass over the bound trace, in event order.

        Clocks accumulate with plain ``+=``: ``sum()`` compensates float
        error on Python 3.12 and would change the last bits per version.
        """
        m = metrics_from_dict(self.metrics.to_dict())
        records: list[EventRecord] = []
        prefix = [0.0]
        clock: dict[int, float] = {}
        for event in self.trace.events if self.trace is not None else ():
            ts = clock.get(event.actor, 0.0)
            clock[event.actor] = ts + event.time
            prefix.append(prefix[-1] + event.time)
            records.append(EventRecord(
                event.phase.value, event.kind.value, event.actor, ts,
                event.time, event.quantity, event.label, event.src, event.dst,
            ))
            _count_event(m, event)
        if clock:
            lanes = m.gauge(
                "repro_sim_time_ms", "Accumulated simulated busy time per lane"
            )
            for actor, busy in clock.items():
                lanes.set(busy, actor=actor_label(actor))
        return _Replay(records, prefix, clock, m)

    @property
    def events(self) -> list[EventRecord]:
        """The bound trace's events on per-actor simulated clocks."""
        return self._replay().events

    def all_metrics(self) -> MetricsRegistry:
        """A fresh registry: :attr:`metrics` plus the ledger counters."""
        return self._replay().metrics

    # ------------------------------------------------------------------
    # direct instrumentation hooks
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1, help: str = "", **labels: Any) -> None:
        """Increment counter ``name`` by ``amount`` (no-op when disabled)."""
        if not self.enabled:
            return
        self.metrics.counter(name, help).inc(amount, **labels)

    def observe(self, name: str, value: float, help: str = "", **labels: Any) -> None:
        """Record one histogram observation (no-op when disabled)."""
        if not self.enabled:
            return
        self.metrics.histogram(name, help).observe(value, **labels)

    def record_kernel_call(self, backend: str, kernel: str) -> None:
        """Count one kernel dispatch (wired via ``observe_kernel_calls``)."""
        if not self.enabled:
            return
        self.metrics.counter(
            "repro_kernel_calls_total", "Kernel dispatches per backend"
        ).inc(1, backend=backend, kernel=kernel)

    def record_compressed(self, scheme: str, n_elements: int) -> None:
        """Count ``n_elements`` nonzeros compressed/encoded by ``scheme``."""
        if not self.enabled:
            return
        self.metrics.counter(
            "repro_elements_compressed_total",
            "Nonzero elements compressed or encoded, per scheme",
        ).inc(n_elements, scheme=scheme)

    def record_detection(self, rank: int, missed_acks: int, time_ms: float) -> None:
        """Record one completed fail-stop detection and its latency."""
        if not self.enabled:
            return
        self.metrics.counter(
            "repro_detections_total", "Fail-stop rank deaths declared"
        ).inc(1, rank=str(rank))
        self.metrics.histogram(
            "repro_detection_latency_ms",
            "Simulated time from first missed ack to declaration",
        ).observe(time_ms)
        self.metrics.counter(
            "repro_missed_acks_total", "Missed acks that fed detections"
        ).inc(missed_acks)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def sim_time_ms(self) -> float:
        """Total simulated milliseconds charged in the bound run."""
        return self._replay().prefix_ms[-1]

    def comm_matrix(self) -> dict[str, dict[str, int]]:
        """Wire elements per sender → receiver (the communication matrix).

        Keys are lane labels (``"host"``, ``"0"``, …); values are the
        total array elements each pair put on the wire, including
        resends — the quantity SpComm3D-style communication profiling
        makes first-class.
        """
        return comm_matrix_from(self.all_metrics())

    def top_spans(self, n: int = 5) -> list[SpanRecord]:
        """The ``n`` spans with the largest simulated elapsed time."""
        return top_spans_from(self.spans, n)

    # ------------------------------------------------------------------
    # the no-drift contract
    # ------------------------------------------------------------------
    def verify_against_trace(self, trace: TraceLog | None = None) -> None:
        """Assert the metric totals equal the TraceLog breakdowns exactly.

        Checks, per phase: wire elements, message count, op count, retry
        count, retry time (identical float-summation order, so exact
        equality) and fault count.  The ledger counters are derived from
        the bound trace, so a mismatch means either a different ``trace``
        or an instrumentation site that also counted a ledger quantity;
        raises :class:`ObservabilityDriftError`.
        """
        if not self.enabled:
            return
        trace = trace if trace is not None else self.trace
        if trace is None:
            raise ValueError("no trace attached or given to verify against")
        m = self.all_metrics()
        for phase in Phase:
            bd = trace.breakdown(phase)
            ph = phase.value
            checks = (
                ("wire elements", bd.elements_sent,
                 m.total("repro_wire_elements_total", phase=ph)),
                ("messages", bd.n_messages,
                 m.total("repro_messages_total", phase=ph)),
                ("ops", bd.ops, m.total("repro_ops_total", phase=ph)),
                ("retries", bd.n_retries,
                 m.total("repro_retries_total", phase=ph)),
                ("retry time", bd.retry_time,
                 m.total("repro_retry_time_ms_total", phase=ph)),
                ("faults", bd.n_faults,
                 m.total("repro_faults_total", phase=ph)),
            )
            for what, ledger, observed in checks:
                if ledger != observed:
                    raise ObservabilityDriftError(
                        f"{ph}: {what} drifted — TraceLog says {ledger!r}, "
                        f"metrics say {observed!r}"
                    )

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self, *, top: int = 10) -> "ObsSnapshot":
        """Freeze the recorder into a result-attachable summary."""
        replay = self._replay()
        spans = self._timed_spans(replay.prefix_ms)
        return ObsSnapshot(
            meta=dict(self.meta),
            n_spans=len(spans),
            n_events=len(replay.events),
            sim_time_ms=replay.prefix_ms[-1],
            actor_sim_ms={
                actor_label(a): t for a, t in sorted(replay.actor_ms.items())
            },
            comm_matrix=comm_matrix_from(replay.metrics),
            metrics=replay.metrics.to_dict(),
            top_spans=tuple(s.to_dict() for s in top_spans_from(spans, top)),
        )

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"Observability({state}, {len(self._spans)} spans, "
            f"{self._n_events()} events, {len(self.metrics)} metrics)"
        )


def _count_event(m: MetricsRegistry, event: Event) -> None:
    """Roll one charged event into the ledger counters."""
    phase = event.phase.value
    if event.kind is EventKind.MESSAGE:
        m.counter(
            "repro_messages_total", "Messages sent (incl. resends)"
        ).inc(1, phase=phase)
        m.counter(
            "repro_wire_elements_total",
            "Array elements on the wire per sender/receiver pair",
        ).inc(
            event.quantity,
            phase=phase,
            src=actor_label(event.src if event.src is not None else event.actor),
            dst=actor_label(event.dst if event.dst is not None else event.actor),
        )
    elif event.kind is EventKind.OPS:
        m.counter(
            "repro_ops_total", "Elementary array-element operations"
        ).inc(event.quantity, phase=phase)
    elif event.kind is EventKind.RETRY:
        m.counter(
            "repro_retries_total", "Failed attempts that triggered a backoff"
        ).inc(1, phase=phase)
        m.counter(
            "repro_retry_time_ms_total", "Backoff/timeout time charged"
        ).inc(event.time, phase=phase)
    elif event.kind is EventKind.FAULT:
        m.counter(
            "repro_faults_total", "Injected fault observations by label"
        ).inc(1, phase=phase, label=event.label)
        if event.label == "duplicate":
            m.counter(
                "repro_dedup_drops_total",
                "Duplicate frames discarded by sequence number",
            ).inc(1, phase=phase)


def comm_matrix_from(metrics: MetricsRegistry) -> dict[str, dict[str, int]]:
    """Sender → receiver wire-element totals from a metrics registry."""
    matrix: dict[str, dict[str, int]] = {}
    metric = metrics.get("repro_wire_elements_total")
    if metric is None:
        return matrix
    for key in metric.labelsets():
        labels = dict(key)
        row = matrix.setdefault(labels.get("src", "?"), {})
        dst = labels.get("dst", "?")
        row[dst] = row.get(dst, 0) + int(metric.samples[key])
    return matrix


def top_spans_from(spans: list[SpanRecord], n: int) -> list[SpanRecord]:
    """The ``n`` closed spans with the largest simulated elapsed time."""
    return sorted(
        (s for s in spans if s.closed),
        key=lambda s: (-s.sim_elapsed_ms, s.span_id),
    )[:n]


class _LiveSpan:
    """Context manager backing :meth:`Observability.span` when enabled."""

    __slots__ = ("_obs", "_name", "_labels", "_record")

    def __init__(self, obs: Observability, name: str, labels: dict[str, Any]):
        self._obs = obs
        self._name = name
        self._labels = labels
        self._record: SpanRecord | None = None

    def __enter__(self) -> SpanRecord:
        self._record = self._obs._open_span(self._name, self._labels)
        return self._record

    def __exit__(self, *exc: object) -> None:
        if self._record is not None:
            self._obs._close_span(self._record)
            self._record = None


@dataclass(frozen=True)
class ObsSnapshot:
    """Immutable observability summary attached to a ``SchemeResult``.

    Everything inside is JSON-compatible (``to_dict`` is the identity
    over plain containers), so ``result_to_dict`` can embed it directly.
    """

    meta: dict[str, Any]
    n_spans: int
    n_events: int
    sim_time_ms: float
    actor_sim_ms: dict[str, float]
    comm_matrix: dict[str, dict[str, int]]
    metrics: dict[str, Any]
    top_spans: tuple[dict[str, Any], ...] = field(default_factory=tuple)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict (what ``result_to_dict`` embeds)."""
        return {
            "meta": dict(self.meta),
            "n_spans": self.n_spans,
            "n_events": self.n_events,
            "sim_time_ms": self.sim_time_ms,
            "actor_sim_ms": dict(self.actor_sim_ms),
            "comm_matrix": {s: dict(d) for s, d in self.comm_matrix.items()},
            "metrics": self.metrics,
            "top_spans": [dict(s) for s in self.top_spans],
        }


#: the shared disabled recorder every un-instrumented machine points at
NULL_OBS = Observability(enabled=False)
