"""Unit tests for the Observability recorder: spans, clocks, no-drift."""

import pytest

from repro.machine import Event, EventKind, Machine, Phase, unit_cost_model
from repro.machine.topology import HOST
from repro.obs import NULL_OBS, Observability, ObservabilityDriftError
from repro.obs.spans import _NULL_SPAN


@pytest.fixture
def obs():
    return Observability(scheme="test")


@pytest.fixture
def machine(obs):
    return Machine(3, cost=unit_cost_model(), obs=obs)


class TestNullObs:
    def test_disabled_by_default_machine_is_unobserved(self):
        machine = Machine(2, cost=unit_cost_model())
        assert machine.obs is NULL_OBS
        assert not machine.obs.enabled

    def test_null_span_is_one_cached_object(self):
        assert NULL_OBS.span("a") is NULL_OBS.span("b", rank=1)
        assert NULL_OBS.span("a") is _NULL_SPAN
        with NULL_OBS.span("a"):
            pass  # no-op context manager works

    def test_null_hooks_record_nothing(self):
        NULL_OBS.count("repro_x_total", 5)
        NULL_OBS.observe("repro_h_ms", 1.0)
        NULL_OBS.record_kernel_call("numpy", "k")
        NULL_OBS.record_compressed("ed", 10)
        NULL_OBS.record_detection(0, 3, 1.0)
        assert len(NULL_OBS.metrics) == 0
        assert NULL_OBS.events == []

    def test_disabled_snapshot_never_attaches(self):
        machine = Machine(2)
        assert NULL_OBS.trace is None or NULL_OBS.trace is not machine.trace


class TestAttachment:
    def test_attach_records_n_procs(self, obs, machine):
        assert obs.n_procs == 3
        assert obs.meta["n_procs"] == 3

    def test_second_machine_rejected(self, obs, machine):
        with pytest.raises(ValueError):
            Machine(2, obs=obs)

    def test_reattach_same_machine_is_idempotent(self, obs, machine):
        obs.attach(machine)
        machine.charge_host_ops(1, Phase.COMPUTE)
        assert len(obs.events) == 1  # not counted twice

    def test_reset_ends_the_run(self, obs, machine):
        machine.charge_host_ops(2, Phase.COMPUTE)
        machine.reset()
        assert machine.obs is NULL_OBS
        machine.charge_host_ops(5, Phase.COMPUTE)
        assert obs.sim_time_ms == 2.0  # the recorder keeps its run's log
        with pytest.raises(ValueError, match="fresh recorder"):
            obs.attach(machine)


class TestEventMirroring:
    def test_events_carry_per_actor_sim_clock(self, obs, machine):
        machine.charge_host_ops(5, Phase.COMPRESSION)
        machine.charge_host_ops(3, Phase.DISTRIBUTION)
        machine.charge_proc_ops(1, 4, Phase.DISTRIBUTION)
        ts = [(e.actor, e.ts_ms, e.dur_ms) for e in obs.events]
        assert ts[0] == (HOST, 0.0, 5.0)
        assert ts[1] == (HOST, 5.0, 3.0)   # host clock advanced
        assert ts[2] == (1, 0.0, 4.0)      # rank 1's own clock starts at 0
        assert obs.sim_time_ms == 12.0

    def test_message_builds_comm_matrix(self, obs, machine):
        machine.send(0, b"x", 10, Phase.DISTRIBUTION)
        machine.send(1, b"y", 20, Phase.DISTRIBUTION)
        matrix = obs.comm_matrix()
        assert matrix == {"host": {"0": 10, "1": 20}}

    def test_ops_counter_tracks_quantities(self, obs, machine):
        machine.charge_proc_ops(2, 40, Phase.COMPRESSION)
        assert obs.all_metrics().total(
            "repro_ops_total", phase="compression"
        ) == 40


class TestSpans:
    def test_nesting_and_depth(self, obs, machine):
        with obs.span("outer", phase="distribution"):
            machine.charge_host_ops(2, Phase.DISTRIBUTION)
            with obs.span("inner", rank=0):
                machine.charge_proc_ops(0, 3, Phase.DISTRIBUTION)
        outer, inner = obs.spans
        assert outer.depth == 0 and inner.depth == 1
        assert inner.parent_id == outer.span_id
        assert inner.sim_elapsed_ms == 3.0
        assert outer.sim_elapsed_ms == 5.0
        assert outer.n_events == 2 and inner.n_events == 1
        assert outer.closed and inner.closed
        assert outer.labels == {"phase": "distribution"}

    def test_sim_clocks_are_event_order_prefix_sums(self, obs, machine):
        times = [0.1, 0.2, 0.3]
        with obs.span("s"):
            for t in times:
                machine.trace.record(Event(Phase.COMPUTE, EventKind.OPS, HOST, t))
        expected = 0.0
        for t in times:
            expected += t
        # 0.6000000000000001; Python 3.12's compensated sum() gives 0.6
        assert obs.spans[0].sim_elapsed_ms == expected
        assert obs.sim_time_ms == expected

    def test_exception_unwinding_closes_children(self, obs):
        with pytest.raises(RuntimeError):
            with obs.span("outer"):
                obs._open_span("orphan", {})  # child never closed explicitly
                raise RuntimeError("boom")
        assert all(s.closed for s in obs.spans)

    def test_wall_clock_is_recorded(self, obs):
        with obs.span("timed"):
            pass
        assert obs.spans[0].wall_elapsed_s >= 0.0

    def test_top_spans_sorted_by_sim_elapsed(self, obs, machine):
        with obs.span("small"):
            machine.charge_host_ops(1, Phase.COMPUTE)
        with obs.span("big"):
            machine.charge_host_ops(10, Phase.COMPUTE)
        names = [s.name for s in obs.top_spans(2)]
        assert names == ["big", "small"]


class TestVerification:
    def test_faithful_mirror_verifies(self, obs, machine):
        machine.charge_host_ops(5, Phase.COMPRESSION)
        machine.send(0, b"x", 7, Phase.DISTRIBUTION)
        obs.verify_against_trace()  # must not raise

    def test_drift_detected(self, obs, machine):
        machine.charge_host_ops(5, Phase.COMPRESSION)
        obs.metrics.counter("repro_ops_total").inc(1, phase="compression")
        with pytest.raises(ObservabilityDriftError):
            obs.verify_against_trace()

    def test_verify_without_trace_raises(self):
        with pytest.raises(ValueError):
            Observability().verify_against_trace()

    def test_disabled_verify_is_noop(self):
        NULL_OBS.verify_against_trace()  # nothing attached, still fine


class TestSnapshot:
    def test_snapshot_is_json_compatible(self, obs, machine):
        import json

        machine.send(0, b"x", 4, Phase.DISTRIBUTION)
        with obs.span("s", rank=0):
            machine.charge_proc_ops(0, 2, Phase.DISTRIBUTION)
        snap = obs.snapshot()
        payload = json.loads(json.dumps(snap.to_dict()))
        assert payload["n_events"] == 2
        assert payload["comm_matrix"] == {"host": {"0": 4}}
        assert payload["meta"]["scheme"] == "test"
        assert payload["top_spans"][0]["name"] == "s"

    def test_actor_clocks_in_snapshot(self, obs, machine):
        machine.charge_host_ops(3, Phase.COMPUTE)
        machine.charge_proc_ops(1, 2, Phase.COMPUTE)
        snap = obs.snapshot()
        assert snap.actor_sim_ms == {"host": 3.0, "1": 2.0}
