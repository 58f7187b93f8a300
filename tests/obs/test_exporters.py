"""Schema tests for the Chrome trace, Prometheus and JSONL exporters."""

import json

import pytest

from repro.machine import Machine, Phase, unit_cost_model
from repro.obs import (
    MACHINE_PID,
    Observability,
    SPAN_PID,
    read_run_log,
    to_chrome_trace,
    to_prometheus_text,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.exporters import _tid_for_actor


@pytest.fixture
def observed_run():
    """A tiny instrumented run with ops, messages and spans."""
    obs = Observability(scheme="ed", n=8)
    machine = Machine(2, cost=unit_cost_model(), obs=obs)
    with obs.span("phase.compress", phase="compression"):
        machine.charge_host_ops(4, Phase.COMPRESSION)
        with obs.span("block", rank=0):
            machine.charge_proc_ops(0, 2, Phase.COMPRESSION)
    machine.send(0, b"a", 5, Phase.DISTRIBUTION)
    machine.send(1, b"b", 6, Phase.DISTRIBUTION)
    return obs, machine


class TestChromeTrace:
    def test_ph_ts_pid_tid_contract(self, observed_run):
        obs, _ = observed_run
        trace = to_chrome_trace(obs)
        events = trace["traceEvents"]
        assert events, "trace must not be empty"
        for e in events:
            assert e["ph"] in {"M", "X", "i"}
            assert isinstance(e["pid"], int)
            assert isinstance(e["tid"], int)
            assert isinstance(e["ts"], (int, float)) and e["ts"] >= 0
            assert "name" in e
            if e["ph"] == "X":
                assert e["dur"] >= 0
            if e["ph"] == "i":
                assert e["s"] in {"g", "p", "t"}

    def test_machine_lanes_mirror_actors(self, observed_run):
        obs, _ = observed_run
        events = to_chrome_trace(obs)["traceEvents"]
        machine_x = [
            e for e in events
            if e["pid"] == MACHINE_PID and e["ph"] in {"X", "i"}
        ]
        # host lane is tid 0, rank r lane is tid r+1
        assert {e["tid"] for e in machine_x} == {0, 1}
        assert _tid_for_actor(-1) == 0 and _tid_for_actor(3) == 4

    def test_spans_live_on_span_pid(self, observed_run):
        obs, _ = observed_run
        events = to_chrome_trace(obs)["traceEvents"]
        spans = [e for e in events if e["pid"] == SPAN_PID and e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"phase.compress", "block"}
        outer = next(e for e in spans if e["name"] == "phase.compress")
        inner = next(e for e in spans if e["name"] == "block")
        # nesting: inner interval inside outer interval (flame stacking)
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_timestamps_are_simulated_microseconds(self, observed_run):
        obs, _ = observed_run
        events = to_chrome_trace(obs)["traceEvents"]
        host_ops = next(
            e for e in events
            if e["pid"] == MACHINE_PID and e["ph"] == "X" and e["tid"] == 0
        )
        assert host_ops["dur"] == 4000.0  # 4 unit-cost ops = 4ms = 4000µs

    def test_metadata_names_processes_and_lanes(self, observed_run):
        obs, _ = observed_run
        events = to_chrome_trace(obs)["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "host (serial)" in names
        assert "rank 0" in names and "rank 1" in names

    def test_other_data_carries_run_meta(self, observed_run):
        obs, _ = observed_run
        trace = to_chrome_trace(obs)
        assert trace["otherData"]["scheme"] == "ed"
        assert trace["displayTimeUnit"] == "ms"

    def test_file_output_is_valid_json(self, observed_run, tmp_path):
        obs, _ = observed_run
        path = write_chrome_trace(obs, tmp_path / "trace.json")
        parsed = json.loads(path.read_text())
        assert parsed["traceEvents"]

    def test_zero_duration_events_become_instants(self):
        obs = Observability()
        machine = Machine(2, cost=unit_cost_model(), obs=obs)
        machine.charge_host_ops(0, Phase.COMPUTE)
        events = to_chrome_trace(obs)["traceEvents"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 1 and instants[0]["s"] == "t"


def _parse_prometheus(text: str):
    """Minimal exposition-format parser: {sample_name{labels}: value}."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        assert name_labels, f"malformed sample line: {line!r}"
        samples[name_labels] = value
    return samples


class TestPrometheus:
    def test_output_parses_and_has_headers(self, observed_run):
        obs, _ = observed_run
        text = to_prometheus_text(obs.all_metrics())
        assert "# TYPE repro_messages_total counter" in text
        assert "# HELP repro_wire_elements_total" in text
        samples = _parse_prometheus(text)
        assert samples['repro_messages_total{phase="distribution"}'] == "2"

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        obs = Observability()
        obs.metrics.histogram(
            "repro_lat_ms", "latency", buckets=(1.0, 10.0)
        ).observe(0.5)
        obs.metrics.histogram("repro_lat_ms").observe(5.0)
        obs.metrics.histogram("repro_lat_ms").observe(100.0)
        text = to_prometheus_text(obs.metrics)
        samples = _parse_prometheus(text)
        assert samples['repro_lat_ms_bucket{le="1"}'] == "1"
        assert samples['repro_lat_ms_bucket{le="10"}'] == "2"
        assert samples['repro_lat_ms_bucket{le="+Inf"}'] == "3"
        assert samples["repro_lat_ms_count"] == "3"
        assert float(samples["repro_lat_ms_sum"]) == 105.5

    def test_label_values_escaped(self):
        obs = Observability()
        obs.metrics.counter("repro_odd_total").inc(1, label='a"b\\c\nd')
        text = to_prometheus_text(obs.metrics)
        assert r'label="a\"b\\c\nd"' in text

    def test_file_output(self, observed_run, tmp_path):
        obs, _ = observed_run
        path = write_prometheus(obs, tmp_path / "m.prom")
        assert path.read_text().endswith("\n")


class TestJsonl:
    def test_round_trip(self, observed_run, tmp_path):
        obs, _ = observed_run
        path = write_jsonl(obs, tmp_path / "run.jsonl")
        log = read_run_log(path)
        assert log.meta["scheme"] == "ed"
        assert log.sim_time_ms == obs.sim_time_ms
        assert len(log.events) == len(obs.events)
        assert [s.name for s in log.spans] == [s.name for s in obs.spans]
        assert log.metrics.to_dict() == obs.all_metrics().to_dict()
        assert log.comm_matrix() == obs.comm_matrix()
        assert [s.name for s in log.top_spans(2)] == [
            s.name for s in obs.top_spans(2)
        ]

    def test_every_line_is_typed_json(self, observed_run, tmp_path):
        obs, _ = observed_run
        path = write_jsonl(obs, tmp_path / "run.jsonl")
        types = [json.loads(l)["type"] for l in path.read_text().splitlines()]
        assert types[0] == "meta" and types[-1] == "metrics"
        assert set(types) == {"meta", "event", "span", "metrics"}

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta", "meta": {}}\nnot json\n')
        with pytest.raises(ValueError, match="2"):
            read_run_log(path)

    def test_unknown_line_type_rejected(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="mystery"):
            read_run_log(path)
