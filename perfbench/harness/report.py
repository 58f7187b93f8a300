"""Metric names, units and the per-layer figures derived from spans.

Per-layer times and counts are per unit of work (one run, one served
request or one sweep cell) over the traced units only.  Every ``*_ms``
layer figure is the time inside the named function, nested calls
included, except ``partition.plan_ms`` (plan minus the validate it
calls) and ``core.self_ms`` (a scheme's ``run`` minus every wrapped call
inside it).  perfbench/LAYERS.md says which end-to-end metric each should
move, on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .metrics import Ratio

__all__ = ["END_TO_END", "Outcome", "PER_LAYER", "Tally", "finish", "layer_metrics"]

END_TO_END = (
    ("throughput_per_cpu_s", "1/s"),
    ("cpu_p50_ms", "ms"),
    ("cpu_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("partition.plan_ms", "ms"),
    ("partition.validate_ms", "ms"),
    ("partition.extract_ms", "ms"),
    ("partition.share", "ratio"),
    ("sparse.submatrix_calls", "count"),
    ("sparse.generate_ms", "ms"),
    ("core.compress_ms", "ms"),
    ("core.encode_ms", "ms"),
    ("core.pack_ms", "ms"),
    ("core.self_ms", "ms"),
    ("machine.builds", "count"),
    ("machine.build_ms", "ms"),
    ("machine.resets", "count"),
    ("machine.sends", "count"),
    ("machine.elements_sent", "count"),
    ("exec.submit_ms", "ms"),
    ("exec.result_wait_ms", "ms"),
    ("exec.tasks", "count"),
    ("runtime.run_ms", "ms"),
    ("runtime.machine_reuse_ratio", "ratio"),
    ("runtime.matrix_hit_ratio", "ratio"),
    ("service.server_latency_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.wire_ms", "ms"),
    ("service.session_hit_ratio", "ratio"),
    ("service.batch_size_mean", "count"),
    ("sweep.cell_ms", "ms"),
    ("sweep.append_ms", "ms"),
    ("obs.snapshot_ms", "ms"),
    ("obs.verify_ms", "ms"),
    ("unclaimed.share", "ratio"),
    ("trace.overhead", "ratio"),
)


@dataclass
class Tally:
    """Units attempted and failed, over set-up and measured units alike."""

    attempted: int = 0
    failed: int = 0
    #: the first few failures, for the detail line
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(why)


@dataclass
class Outcome:
    """What a workload driver hands back to ``run.py``."""

    #: metric name -> number or Ratio
    values: dict[str, Any]
    detail: dict[str, Any]
    tally: Tally


def layer_metrics(
    summary: Mapping[str, Any], units: int, unit_ms: float, unclaimed_ms: float
) -> dict[str, Any]:
    """The span-derived per-layer figures for ``units`` traced units
    that took ``unit_ms`` in all; ``unclaimed_ms`` is the part of that
    time no wrapped layer function claims."""
    if units < 1:
        raise ValueError("no traced units to summarise")
    calls, ms, self_ms = summary["calls"], summary["ms"], summary["self_ms"]

    def per(table: Mapping[str, float], name: str) -> float:
        return table.get(name, 0) / units

    runs = calls.get("runtime.run", 0)
    lookups = calls.get("runtime.matrix_for", 0)
    return {
        "partition.plan_ms": per(self_ms, "partition.plan"),
        "partition.validate_ms": per(ms, "partition.validate"),
        "partition.extract_ms": per(ms, "partition.extract"),
        "partition.share": Ratio(
            summary["outer_ms"].get("partition", 0.0), unit_ms, "ms of unit time"
        ),
        "sparse.submatrix_calls": per(calls, "sparse.submatrix"),
        "sparse.generate_ms": per(ms, "sparse.generate"),
        "core.compress_ms": per(ms, "core.compress"),
        "core.encode_ms": per(ms, "core.encode"),
        "core.pack_ms": per(ms, "core.pack"),
        "core.self_ms": per(self_ms, "core.run"),
        "machine.builds": per(calls, "machine.build"),
        "machine.build_ms": per(ms, "machine.build"),
        "machine.resets": per(calls, "machine.reset"),
        "machine.sends": per(calls, "machine.send"),
        "exec.submit_ms": per(ms, "exec.submit"),
        "exec.result_wait_ms": per(ms, "exec.result"),
        "exec.tasks": per(calls, "exec.submit"),
        "runtime.run_ms": per(ms, "runtime.run"),
        "runtime.machine_reuse_ratio": Ratio(
            runs - summary["builds_in_runs"], runs, "RunSession.run calls"
        ),
        "runtime.matrix_hit_ratio": Ratio(
            lookups - summary["generated_in_lookup"], lookups,
            "RunSession.matrix_for calls",
        ),
        "sweep.append_ms": per(ms, "sweep.append"),
        "obs.snapshot_ms": per(ms, "obs.snapshot"),
        "obs.verify_ms": per(ms, "obs.verify"),
        "unclaimed.share": Ratio(unclaimed_ms, unit_ms, "ms of unit time"),
    }


def finish(
    values: Mapping[str, Any], names: tuple[tuple[str, str], ...]
) -> tuple[dict[str, dict[str, Any]], dict[str, Any]]:
    """``(metrics, bases)``: every named metric as ``{"value", "unit"}``
    (0 where the workload does not reach the layer) and, for each ratio,
    its numerator and base."""
    metrics: dict[str, dict[str, Any]] = {}
    bases: dict[str, Any] = {}
    for name, unit in names:
        value = values.get(name)
        if value is None:
            # the workload never reaches this layer
            value = Ratio(0.0, 0.0, "not reached") if unit == "ratio" else 0.0
        if isinstance(value, Ratio):
            bases[name] = value.describe()
            value = value.value
        elif unit == "ratio":
            raise TypeError(f"ratio {name} was reported without its base")
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics, bases
