"""The live service: fidelity, resilience and the /metrics endpoint.

Every test talks to a real :class:`RunService` on a unix socket (the
``make_service`` fixture).  The headline guarantees pinned here:

* a served result is **byte-identical** (canonical JSON) to a direct
  one-shot run with the same parameters, on both executors;
* one misbehaving client (malformed line, mid-run disconnect, queue
  overflow) never degrades service for the next one;
* the ``/metrics`` totals reconcile with the per-result payloads.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.machine.export import result_to_dict
from repro.runtime import RunRequest, RunSession
from repro.service import ServiceClient, encode_line
from repro.sweep import canonical_json

from .conftest import wait_until


def jsonl_socket(live):
    """A raw AF_UNIX socket speaking JSONL to the live service."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(60.0)
    sock.connect(str(live.socket_path))
    return sock


class TestServedFidelity:
    @pytest.mark.parametrize("executor", ["sim", "process"])
    def test_served_result_is_byte_identical_to_run_config(
        self, service, executor
    ):
        params = dict(scheme="sfc", n=48, n_procs=2, seed=5)
        with ServiceClient(socket_path=service.socket_path) as client:
            served = client.run(executor=executor, **params)
        with RunSession() as session:
            direct = session.run(RunRequest(executor=executor, **params))
        assert canonical_json(served) == canonical_json(result_to_dict(direct))

    def test_warm_repeat_is_identical_and_hits_the_session_cache(
        self, service
    ):
        params = dict(scheme="ed", n=48, n_procs=2, seed=1)
        with ServiceClient(socket_path=service.socket_path) as client:
            first = client.run(**params)
            second = client.run(**params)
            stats = client.stats()
        assert canonical_json(first) == canonical_json(second)
        assert stats["misses"] == 1
        assert stats["hits"] >= 1
        assert stats["completed"] == 2

    def test_observe_flag_ships_a_snapshot_in_the_payload(self, service):
        with ServiceClient(socket_path=service.socket_path) as client:
            plain = client.run(scheme="ed", n=32, n_procs=2)
            observed = client.run(scheme="ed", n=32, n_procs=2, observe=True)
        assert "observability" not in plain
        assert observed["observability"]["meta"]["served"] is True
        # the run itself is unchanged by observation
        assert observed["t_total_ms"] == plain["t_total_ms"]

    def test_pipelined_requests_come_back_correlated_by_id(self, service):
        requests = [
            {"op": "run", "id": f"p{i}", "scheme": "cfs", "n": 32,
             "n_procs": 2, "seed": i}
            for i in range(4)
        ]
        sock = jsonl_socket(service)
        try:
            with sock.makefile("rwb") as file:
                for request in requests:  # all in flight at once
                    file.write(encode_line(request))
                file.flush()
                responses = [json.loads(file.readline()) for _ in requests]
        finally:
            sock.close()
        assert {r["id"] for r in responses} == {"p0", "p1", "p2", "p3"}
        assert all(r["type"] == "result" for r in responses)


class TestControlAndErrors:
    def test_ping_stats_metrics_ops(self, service):
        with ServiceClient(socket_path=service.socket_path) as client:
            assert client.ping() is True
            client.run(scheme="ed", n=32, n_procs=2)
            stats = client.stats()
            text = client.metrics_text()
        assert stats["connections"] >= 1
        assert stats["completed"] == 1
        assert "# TYPE repro_service_requests_total counter" in text
        assert 'repro_service_requests_total{status="ok"} 1' in text

    def test_malformed_json_gets_one_friendly_line_and_the_connection_lives(
        self, service
    ):
        sock = jsonl_socket(service)
        try:
            with sock.makefile("rwb") as file:
                file.write(b"{this is not json\n")
                file.flush()
                error = json.loads(file.readline())
                assert error["type"] == "error"
                assert error["code"] == 400
                assert "not valid JSON" in error["error"]
                assert "Traceback" not in error["error"]
                # same connection, next line: served normally
                file.write(encode_line(
                    {"op": "run", "id": "ok", "scheme": "ed",
                     "n": 32, "n_procs": 2}
                ))
                file.flush()
                response = json.loads(file.readline())
        finally:
            sock.close()
        assert response["type"] == "result"
        assert response["id"] == "ok"

    def test_unknown_scheme_is_a_400_with_alternatives(self, service):
        with ServiceClient(socket_path=service.socket_path) as client:
            response = client.request(
                {"op": "run", "id": "r1", "scheme": "nope",
                 "n": 32, "n_procs": 2}
            )
        assert response["type"] == "error"
        assert response["id"] == "r1"
        assert "available:" in response["error"]


class TestBackpressure:
    def test_queue_full_answers_a_typed_429_reject(self, make_service):
        started = threading.Event()
        hold = threading.Event()

        def gate(requests):
            started.set()
            assert hold.wait(timeout=30)

        live = make_service(
            workers=1, queue_size=1, on_batch_start=gate
        )
        sock = jsonl_socket(live)
        try:
            with sock.makefile("rwb") as file:
                def send(rid):
                    file.write(encode_line(
                        {"op": "run", "id": rid, "scheme": "ed",
                         "n": 32, "n_procs": 2}
                    ))
                    file.flush()

                send("running")  # taken by the (held) worker
                assert started.wait(timeout=30)
                send("queued")   # fills the queue (capacity 1)
                assert wait_until(
                    lambda: live.service.scheduler.stats()["queue_depth"] == 1
                )
                send("overflow")  # bounced, immediately
                reject = json.loads(file.readline())
                assert reject["type"] == "reject"
                assert reject["id"] == "overflow"
                assert reject["code"] == 429
                assert "retry later" in reject["error"]
                hold.set()  # release: both held requests complete
                done = {json.loads(file.readline())["id"] for _ in range(2)}
        finally:
            hold.set()
            sock.close()
        assert done == {"running", "queued"}
        assert live.service.scheduler.rejected == 1

    def test_idle_worker_waiting_on_a_busy_key_does_not_starve_the_loop(
        self, make_service
    ):
        """Regression: with one batch in flight and a same-key request
        queued behind it, the second (idle) worker used to re-scan the
        queue in a tight loop without ever yielding — starving the event
        loop, which blocked the in-flight batch's own completion
        callback.  The whole service wedged at 100% CPU.  Pin: the loop
        must stay responsive (ping answers) while exactly that state
        holds, and both runs must then complete."""
        started = threading.Event()
        hold = threading.Event()

        def gate(requests):
            started.set()
            assert hold.wait(timeout=30)

        live = make_service(workers=2, on_batch_start=gate)
        sock = jsonl_socket(live)
        try:
            with sock.makefile("rwb") as file:
                file.write(encode_line(
                    {"op": "run", "id": "first", "scheme": "ed",
                     "n": 32, "n_procs": 2}
                ))
                file.flush()
                assert started.wait(timeout=30)
                # same session key as the held batch: unrunnable for the
                # idle worker until the key frees
                file.write(encode_line(
                    {"op": "run", "id": "second", "scheme": "ed",
                     "n": 32, "n_procs": 2}
                ))
                # a control op needs a live event loop to be answered
                file.write(encode_line({"op": "ping", "id": "alive"}))
                file.flush()
                pong = json.loads(file.readline())
                assert pong == {"type": "pong", "id": "alive"}
                hold.set()
                done = {json.loads(file.readline())["id"] for _ in range(2)}
        finally:
            hold.set()
            sock.close()
        assert done == {"first", "second"}

    def test_client_disconnect_mid_run_is_survivable(self, make_service):
        started = threading.Event()
        hold = threading.Event()

        def gate(requests):
            started.set()
            assert hold.wait(timeout=30)

        live = make_service(workers=1, on_batch_start=gate)
        sock = jsonl_socket(live)
        try:
            sock.sendall(encode_line(
                {"op": "run", "id": "orphan", "scheme": "ed",
                 "n": 32, "n_procs": 2}
            ))
            assert started.wait(timeout=30)
        finally:
            sock.close()  # vanish mid-run
        # let the loop register the EOF (and cancel the response task)
        # before the run is allowed to finish — otherwise the result can
        # legitimately win the race and be delivered to the dead socket
        assert wait_until(lambda: live.service._disconnects >= 1)
        hold.set()
        scheduler = live.service.scheduler
        assert wait_until(lambda: scheduler.discarded >= 1)
        # the warm session survived; a new client is served normally
        with ServiceClient(socket_path=live.socket_path) as client:
            payload = client.run(scheme="ed", n=32, n_procs=2)
            stats = client.stats()
        assert payload["scheme"] == "ed"
        assert stats["disconnects"] >= 1

    def test_lru_eviction_under_mixed_session_key_traffic(self, make_service):
        live = make_service(workers=1, max_sessions=1)
        with ServiceClient(socket_path=live.socket_path) as client:
            client.run(scheme="ed", n=32, n_procs=2)   # miss: build (p=2)
            client.run(scheme="ed", n=32, n_procs=4)   # miss: evict p=2
            client.run(scheme="ed", n=32, n_procs=2)   # miss again: evicted
            client.run(scheme="ed", n=32, n_procs=2)   # hit: still warm
            stats = client.stats()
        assert stats["sessions"] == 1
        assert stats["misses"] == 3
        assert stats["evictions"] == 2
        assert stats["hits"] == 1


class TestMetricsEndpoint:
    def test_http_get_metrics_serves_the_live_registry(self, service):
        with ServiceClient(socket_path=service.socket_path) as client:
            client.run(scheme="ed", n=32, n_procs=2)
        sock = jsonl_socket(service)
        try:
            sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: repro\r\n\r\n")
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        finally:
            sock.close()
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"text/plain; version=0.0.4" in head
        text = body.decode()
        assert 'repro_service_requests_total{status="ok"} 1' in text
        assert "repro_service_queue_depth 0" in text
        assert "repro_service_scrapes_total 1" in text

    def test_http_other_paths_are_404(self, service):
        sock = jsonl_socket(service)
        try:
            sock.sendall(b"GET /favicon.ico HTTP/1.1\r\n\r\n")
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        finally:
            sock.close()
        assert raw.startswith(b"HTTP/1.1 404 Not Found")
        assert b"scrape /metrics" in raw

    def test_metrics_totals_reconcile_with_served_payloads(self, make_service):
        live = make_service(workers=1)
        with ServiceClient(socket_path=live.socket_path) as client:
            payloads = [
                client.run(scheme=scheme, n=48, n_procs=2, seed=seed)
                for scheme, seed in
                [("sfc", 0), ("ed", 1), ("cfs", 2), ("ed", 1)]
            ]
            text = client.metrics_text()
        served_ms = sum(p["t_total_ms"] for p in payloads)
        exported = {
            line.split()[0]: line.split()[1]
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
        assert float(
            exported["repro_service_sim_time_ms_total"]
        ) == pytest.approx(served_ms, rel=1e-9)
        assert exported['repro_service_requests_total{status="ok"}'] == "4"
        assert exported['repro_service_latency_ms_count{status="ok"}'] == "4"
        # clean runs accumulate no supervisor events
        assert not any(
            name.startswith("repro_service_supervisor_events_total")
            for name in exported
        )
