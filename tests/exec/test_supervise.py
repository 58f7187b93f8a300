"""Real-fault supervision: deadlines, crash/hang healing, degradation.

Every test here injects a *real* OS fault (``SIGKILL`` / ``SIGSTOP``)
into a rank worker and asserts the supervisor heals it: the task's value
still arrives, charges replay exactly once, and the summary/metrics
record what happened.  The opt-in
``oschaos`` battery (``test_oschaos.py``) extends this to random faults
over the full scheme grid; these tests pin each mechanism one at a time.
"""

from __future__ import annotations

import json
import os
import signal
import time
import warnings

import numpy as np
import pytest

from repro.exec import (
    ExecutorError,
    SuperviseSpec,
    WorkerCrashError,
    current_supervision,
    get_executor,
    rank_task,
    shutdown_escalations,
    use_supervision,
)
from repro.exec import process as process_mod
from repro.exec.process import ProcessSession
from repro.exec.supervise import SupervisedSession
from repro.machine import Machine, trace_to_dict
from repro.machine.trace import Phase


@rank_task("test.slowfail")
def _slowfail(ctx, seconds=0.0):
    """Charge, optionally sleep, then fail — deterministically."""
    ctx.charge(5, Phase.DISTRIBUTION, "pre-fail")
    if seconds:
        time.sleep(seconds)
    raise ValueError("test.slowfail failed deterministically")


def make_session(p=2, **overrides):
    """A SupervisedSession over ``p`` real workers with fast test knobs."""
    defaults = dict(task_timeout_s=15.0, backoff_s=0.01, max_backoff_s=1.0)
    defaults.update(overrides)
    with use_supervision(SuperviseSpec(**defaults)):
        sess = get_executor("process").create_session(p)
    assert isinstance(sess, SupervisedSession)
    return sess


def dispatch(sess, rank, task, kwargs):
    return sess.dispatch(
        rank, task, rank, kwargs, {}, backend="numpy", count_kernels=False
    )


def warm_worker(sess, rank):
    """Spawn the rank's worker and return its pid."""
    h = dispatch(sess, rank, "exec.echo", {"payload": "warm"})
    assert sess.result(h).value == "warm"
    pid = sess.inner.worker_pid(rank)
    assert pid is not None
    return pid


# ----------------------------------------------------------------------
# the spec
# ----------------------------------------------------------------------
class TestSuperviseSpec:
    def test_round_trip(self):
        spec = SuperviseSpec(
            task_timeout_s=3.5, max_restarts=1, backoff_s=0.1,
            backoff_factor=3.0, max_backoff_s=0.5, degrade=False,
        )
        assert SuperviseSpec.from_json(spec.to_json()) == spec

    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"task_timeout_s": 7, "max_restarts": 5}))
        spec = SuperviseSpec.from_file(path)
        assert spec.task_timeout_s == 7.0 and spec.max_restarts == 5
        assert spec.degrade is True  # defaults fill the rest

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown supervise-spec keys"):
            SuperviseSpec.from_dict({"task_timeout": 3})

    def test_degrade_must_be_bool(self):
        with pytest.raises(ValueError, match="JSON boolean"):
            SuperviseSpec.from_dict({"degrade": 1})

    @pytest.mark.parametrize("bad", [
        {"task_timeout_s": 0.0},
        {"max_restarts": -1},
        {"backoff_s": -0.1},
        {"backoff_factor": 0.5},
        {"backoff_s": 2.0, "max_backoff_s": 1.0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SuperviseSpec(**bad)

    def test_backoff_exponential_and_capped(self):
        spec = SuperviseSpec(backoff_s=0.1, backoff_factor=2.0, max_backoff_s=0.3)
        assert spec.backoff_for(1) == pytest.approx(0.1)
        assert spec.backoff_for(2) == pytest.approx(0.2)
        assert spec.backoff_for(3) == pytest.approx(0.3)  # capped
        assert spec.backoff_for(9) == pytest.approx(0.3)


# ----------------------------------------------------------------------
# selection (an explicit scope, else off)
# ----------------------------------------------------------------------
class TestSelection:
    def test_off_by_default(self):
        assert current_supervision() is None
        sess = get_executor("process").create_session(2)
        assert isinstance(sess, ProcessSession)
        sess.shutdown()

    def test_scope_wraps_session(self):
        sess = make_session(p=2)
        assert isinstance(sess.inner, ProcessSession)
        assert sess.n_procs == 2
        sess.shutdown()
        # scope closed: back to bare
        assert current_supervision() is None

    def test_scope_none_is_noop(self):
        spec = SuperviseSpec(max_restarts=9)
        with use_supervision(spec):
            with use_supervision(None):
                assert current_supervision() == spec


# ----------------------------------------------------------------------
# crash and hang healing
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_sigkill_mid_task_is_healed(self):
        sess = make_session(p=2)
        try:
            h = dispatch(sess, 0, "exec.sleep", {"seconds": 0.4})
            time.sleep(0.1)
            os.kill(sess.inner.worker_pid(0), signal.SIGKILL)
            assert sess.result(h).value == 0.4
            summary = sess.supervisor_summary()
            assert summary.crashes == 1
            assert summary.restarts == 1
            assert summary.replays == 1
            assert summary.hangs == 0
            assert not summary.clean
            assert "crashes=1" in summary.line()
        finally:
            sess.shutdown()

    def test_sigstop_hang_detected_and_healed(self):
        sess = make_session(p=2, task_timeout_s=0.6)
        try:
            pid = warm_worker(sess, 1)
            h = dispatch(sess, 1, "exec.sleep", {"seconds": 0.3})
            os.kill(pid, signal.SIGSTOP)
            # the fresh worker is not stopped, so the replay completes
            assert sess.result(h).value == 0.3
            summary = sess.supervisor_summary()
            assert summary.hangs == 1 and summary.restarts == 1
        finally:
            sess.shutdown()

    def test_crash_between_tasks_keeps_rank_usable(self):
        sess = make_session(p=2)
        try:
            warm_worker(sess, 0)
            worker = sess.inner._workers[0]
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(10)  # make the death observable before dispatching
            # the next dispatch simply respawns: no pending task died, so
            # nothing to heal and nothing recorded
            h = dispatch(sess, 0, "exec.echo", {"payload": 11})
            assert sess.result(h).value == 11
            assert sess.supervisor_summary().crashes == 0
        finally:
            sess.shutdown()

    def test_repeated_crashes_consume_budget_then_degrade(self):
        sess = make_session(p=2, max_restarts=1, task_timeout_s=10.0)
        try:
            for _ in range(2):
                h = dispatch(sess, 0, "exec.sleep", {"seconds": 0.4})
                time.sleep(0.1)
                pid = sess.inner.worker_pid(0)
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                assert sess.result(h).value == 0.4
            summary = sess.supervisor_summary()
            assert summary.restarts == 1  # budget
            assert summary.downgrades == 1
            assert summary.degraded_ranks == (0,)
            # the degraded rank keeps serving tasks, inline
            h = dispatch(sess, 0, "exec.echo", {"payload": "inline"})
            assert sess.result(h).value == "inline"
            assert sess.inner.worker_pid(0) is None  # no worker respawned
            # the other rank still runs on its worker
            assert warm_worker(sess, 1) is not None
        finally:
            sess.shutdown()

    def test_degrade_false_raises_typed_error(self):
        sess = make_session(p=2, max_restarts=0, degrade=False)
        try:
            h = dispatch(sess, 1, "exec.sleep", {"seconds": 0.4})
            time.sleep(0.1)
            os.kill(sess.inner.worker_pid(1), signal.SIGKILL)
            with pytest.raises(WorkerCrashError) as excinfo:
                sess.result(h)
            err = excinfo.value
            assert err.rank == 1
            assert err.task == "exec.sleep"
            assert err.reason == "crash"
            assert "restart budget (0) is exhausted" in str(err)
            assert isinstance(err, ExecutorError)
        finally:
            sess.shutdown()

    def test_simulated_kill_rank_is_never_resurrected(self):
        sess = make_session(p=2)
        try:
            warm_worker(sess, 0)
            h = dispatch(sess, 0, "exec.sleep", {"seconds": 5.0})
            sess.kill_rank(0)
            with pytest.raises(ExecutorError, match="is lost"):
                sess.result(h)
            summary = sess.supervisor_summary()
            assert summary.restarts == 0 and summary.crashes == 0
        finally:
            sess.shutdown()

    def test_collecting_stale_handle_raises(self):
        sess = make_session(p=2)
        try:
            h = dispatch(sess, 0, "exec.echo", {"payload": 1})
            assert sess.result(h).value == 1
            with pytest.raises(ExecutorError, match="is lost"):
                sess.result(h)
        finally:
            sess.shutdown()


# ----------------------------------------------------------------------
# replay that fails a second time (PoisonFrame ordering, satellite)
# ----------------------------------------------------------------------
class TestFailingReplayOrdering:
    def _run(self, executor, chaos):
        """Submit a failing task on rank 0 and a poisoned frame on rank 1.

        Returns (exceptions in result order, trace dict, summary).
        """
        with use_supervision(
            SuperviseSpec(task_timeout_s=15.0, backoff_s=0.0)
            if executor == "process" else None
        ):
            machine = Machine(2, executor=executor)
            pool = machine.rank_pool()
        try:
            pool.submit(0, "test.slowfail", Phase.DISTRIBUTION, seconds=0.4)
            if chaos:
                time.sleep(0.1)
                os.kill(machine._exec_session.inner.worker_pid(0), signal.SIGKILL)
            # rank 1's mailbox is empty: the pop error is deferred to
            # rank 1's position in the result stream, like the serial
            # receiver loop raises it
            frame = pool.take_frame(1)
            pool.submit(1, "exec.echo", Phase.DISTRIBUTION, payload=frame)
            errors = []
            for rank in (0, 1):
                with pytest.raises((ValueError, LookupError)) as excinfo:
                    pool.result(rank)
                errors.append(excinfo.value)
            summary = machine.supervisor_summary()
            return errors, trace_to_dict(machine.trace), summary
        finally:
            machine.shutdown()

    def test_replayed_failure_surfaces_at_the_same_position(self):
        sim_errors, sim_trace, _ = self._run("sim", chaos=False)
        sup_errors, sup_trace, summary = self._run("process", chaos=True)
        # rank 0: the task's own error (replayed, failed again) — not a
        # WorkerCrashError; rank 1: the deferred pop error
        assert isinstance(sup_errors[0], ValueError)
        assert str(sup_errors[0]) == str(sim_errors[0])
        assert isinstance(sup_errors[1], LookupError)
        assert str(sup_errors[1]) == str(sim_errors[1])
        # the pre-raise charge replayed exactly once despite the retry
        assert sup_trace == sim_trace
        assert summary.crashes == 1 and summary.replays == 1


# ----------------------------------------------------------------------
# envelopes far larger than a socket buffer
# ----------------------------------------------------------------------
#: 16 MB of float64 — far above any socket buffer, so a send only
#: completes while the worker keeps reading
BIG = np.arange(2_000_000, dtype=np.float64)


class TestBigEnvelopes:
    def test_big_envelope_to_stopped_worker_is_healed(self):
        """The deadline bounds the send: the host never blocks forever."""
        sess = make_session(p=1, task_timeout_s=0.6)
        try:
            pid = warm_worker(sess, 0)
            os.kill(pid, signal.SIGSTOP)
            started = time.monotonic()
            h = dispatch(sess, 0, "exec.echo", {"payload": BIG})
            value = sess.result(h).value
            elapsed = time.monotonic() - started
            assert np.array_equal(value, BIG)
            assert sess.supervisor_summary().hangs == 1
            assert elapsed < 4 * 0.6
        finally:
            sess.shutdown()

    def test_uncollected_big_reply_does_not_block_the_next_dispatch(self):
        """One task in flight: a reply nobody collected is drained first.

        Otherwise the worker, still writing the first 16 MB echo, and
        the host, writing the second 16 MB envelope, wait on each other.
        """
        sess = ProcessSession(1)
        try:
            sess.dispatch(
                0, "exec.echo", 0, {"payload": BIG}, {}, backend="numpy",
                count_kernels=False,
            )
            second = BIG[::-1].copy()
            h = sess.dispatch(
                0, "exec.echo", 0, {"payload": second}, {}, backend="numpy",
                count_kernels=False,
            )
            assert np.array_equal(sess.result(h).value, second)
        finally:
            sess.shutdown()


# ----------------------------------------------------------------------
# shutdown escalation (the silent-zombie fix, satellite)
# ----------------------------------------------------------------------
class TestShutdownEscalation:
    def test_stopped_worker_is_escalated_and_warned_once(self, monkeypatch):
        monkeypatch.setattr(process_mod, "_JOIN_GRACE_S", 0.2)
        monkeypatch.setattr(process_mod, "_escalation_warned", False)
        sess = ProcessSession(2)
        h = sess.dispatch(
            0, "exec.echo", 0, {"payload": 1}, {}, backend="numpy",
            count_kernels=False,
        )
        assert sess.result(h).value == 1
        os.kill(sess.worker_pid(0), signal.SIGSTOP)
        before = shutdown_escalations()
        with pytest.warns(RuntimeWarning, match="forcibly terminated"):
            escalated = sess.shutdown()
        assert escalated == 1
        assert shutdown_escalations() == before + 1
        # warn-once: a second escalation only counts, never re-warns
        sess2 = ProcessSession(1)
        h = sess2.dispatch(
            0, "exec.echo", 0, {"payload": 2}, {}, backend="numpy",
            count_kernels=False,
        )
        assert sess2.result(h).value == 2
        os.kill(sess2.worker_pid(0), signal.SIGSTOP)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert sess2.shutdown() == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert shutdown_escalations() == before + 2

    def test_clean_shutdown_does_not_escalate(self):
        sess = ProcessSession(2)
        h = sess.dispatch(
            1, "exec.echo", 1, {"payload": 3}, {}, backend="numpy",
            count_kernels=False,
        )
        assert sess.result(h).value == 3
        assert sess.shutdown() == 0

    def test_supervised_shutdown_surfaces_escalations(self, monkeypatch):
        monkeypatch.setattr(process_mod, "_JOIN_GRACE_S", 0.2)
        monkeypatch.setattr(process_mod, "_escalation_warned", True)
        sess = make_session(p=2)
        pid = warm_worker(sess, 0)
        os.kill(pid, signal.SIGSTOP)
        assert sess.shutdown() == 1
        assert sess.supervisor_summary().escalations == 1


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class TestSupervisorObservability:
    def test_counters_and_spans_recorded(self):
        from repro.obs import Observability
        from repro.obs.exporters import to_chrome_trace

        obs = Observability(test="supervise")
        sess = make_session(p=2)
        sess.attach_obs(obs)
        try:
            h = dispatch(sess, 0, "exec.sleep", {"seconds": 0.3})
            time.sleep(0.1)
            os.kill(sess.inner.worker_pid(0), signal.SIGKILL)
            assert sess.result(h).value == 0.3
        finally:
            sess.shutdown()
        totals = {
            m.name: sum(m.samples.values())
            for m in obs.metrics.collect()
            if m.name.startswith("repro_supervisor_")
        }
        assert totals["repro_supervisor_crashes_total"] == 1
        assert totals["repro_supervisor_restarts_total"] == 1
        assert totals["repro_supervisor_replays_total"] == 1
        trace = to_chrome_trace(obs)
        lanes = [
            e for e in trace["traceEvents"]
            if e.get("name") == "thread_name"
            and e["args"]["name"] == "supervisor"
        ]
        assert len(lanes) == 1
        spans = [
            e for e in trace["traceEvents"] if e.get("cat") == "supervisor"
        ]
        assert spans and spans[0]["name"] == "supervisor.restart"
        assert all(e["tid"] == 1 for e in spans)

    def test_unsupervised_export_has_no_supervisor_lane(self):
        from repro.obs import Observability
        from repro.obs.exporters import to_chrome_trace

        obs = Observability(test="plain")
        with obs.span("root"):
            pass
        trace = to_chrome_trace(obs)
        assert not [
            e for e in trace["traceEvents"]
            if e.get("name") == "thread_name"
            and e["args"]["name"] == "supervisor"
        ]


# ----------------------------------------------------------------------
# result plumbing
# ----------------------------------------------------------------------
class TestResultPlumbing:
    def test_supervisor_summary_rides_scheme_result(self):
        from repro.machine import result_to_dict
        from repro.runtime import run_scheme
        from repro.sparse import random_sparse

        matrix = random_sparse((60, 60), 0.1, seed=5)
        bare = run_scheme("sfc", matrix, n_procs=2)
        assert bare.supervisor_summary is None
        assert bare.supervisor_line() == "supervisor: off"
        assert "supervisor_summary" not in result_to_dict(bare)

        supervised = run_scheme(
            "sfc", matrix, n_procs=2, executor="process",
            supervise=SuperviseSpec(task_timeout_s=30.0),
        )
        summary = supervised.supervisor_summary
        assert summary is not None and summary.clean
        assert supervised.supervisor_line() == "supervisor: on, no real faults"
        exported = result_to_dict(supervised)
        assert exported["supervisor_summary"]["crashes"] == 0
        # byte-identity: everything else matches the sim run exactly
        del exported["supervisor_summary"]
        assert exported == result_to_dict(bare)
