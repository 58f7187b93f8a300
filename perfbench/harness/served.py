"""Closed-loop driver for ``served-small``: ``repro serve`` subprocesses.

Each set-up starts one server on a unix socket in a private directory of
the checkout, and all of them stay up.  Each server in turn gets an equal
share of the measured time on its own client connection.  There the
client alternates whole cycles of the seeded stream in two loops:

* *saturated*: :data:`WINDOW` requests in flight, so the server is never
  idle; throughput comes from these cycles;
* *sequential*: one request in flight, so each reply is timed through an
  otherwise idle server; latency comes from these cycles.  In the
  saturated loop a request's latency is mostly its place in the queue,
  which only restates the throughput.

A unit is one request, timed from its send to its reply.  Times are
CPU time of the client and the server together (``host.cpu_clock``),
with the wall-clock figures in the detail line; every process is on one
CPU, so between a send and its reply in a sequential cycle that CPU
runs only the request.

Every reply is compared with ``result_to_dict`` of a one-shot run.  The
reply lines are matched and checked after each cycle, so the checking
does not compete with the server for the CPU while a cycle is timed.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from . import checks
from .host import CHECKOUT, cpu_clock, scratch, tree_peak_mb
from .metrics import (
    Ratio, Reply, cycle_slices, latencies_ms, median, median_tail, request_median,
)
from .report import Outcome, Tally, layer_metrics
from .tracer import summarize
from .workloads import SETUP_REPEATS, Request, Workload, stream

__all__ = ["WINDOW", "run_served"]

#: requests kept in flight on each connection: a whole cycle, so the
#: server works through it batch by batch (same session key, up to 8 a
#: batch) without waiting on the client.  With 8 in flight the client's
#: wake-ups paced the server, and a slow vCPU moved throughput by a third.
WINDOW = 27

#: a server's memory is read after this many measured pairs of cycles.
#: Its resident set grows with the requests it has served (about 52 MB
#: after set-up, 56 MB after 8 pairs, 62 MB after 30 s), so a reading
#: after a fixed amount of work does not follow the host's speed.
PEAK_PAIRS = 8

#: how long to wait for the replies still owed after the last send
REPLY_GRACE_S = 10.0

#: how long a server may take to start listening
START_TIMEOUT_S = 60.0

LAUNCHER = Path(__file__).resolve().parents[1] / "traced_serve.py"


class Server:
    """One ``repro serve`` process; ``spans_out`` selects the traced
    launcher, which writes its spans there when the server stops."""

    def __init__(self, tmp: Path, name: str, spans_out: Path | None = None) -> None:
        # a relative socket path keeps clear of the 108-byte limit
        self.socket_path = os.path.relpath(tmp / f"{name}.sock")
        if len(self.socket_path) > 100:
            raise RuntimeError(f"socket path too long: {self.socket_path}")
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro"]
        else:
            cmd = [sys.executable, str(LAUNCHER), str(spans_out)]
        cmd += ["serve", "--socket", self.socket_path, "--workers", "2",
                "--queue-size", "64", "--backend", "numpy", "--executor", "sim"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(CHECKOUT / "src"), env.get("PYTHONPATH")) if p
        )
        self.log_path = tmp / f"{name}.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, env=env
        )
        try:
            self._wait_listening()
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self) -> None:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if b"listening" in line:
                    return
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(
            f"repro serve did not start: {self.log_path.read_text(errors='replace')[-2000:]}"
        )

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class Connection:
    """One client connection to ``server``, read on the calling thread: a
    reply line is stamped, on the wall clock and on the CPU clock of the
    client and server, when the chunk that completes it arrives."""

    def __init__(self, server: Server) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(server.socket_path)
        self.cpu = cpu_clock(server.proc.pid)
        self._buf = b""
        self._at = (0.0, 0.0)

    def send(self, obj: dict[str, Any]) -> tuple[float, float]:
        """Send one request; returns its ``(wall, cpu)`` stamp."""
        data = (json.dumps(obj, separators=(",", ":")) + "\n").encode()
        sent = (time.perf_counter(), self.cpu())
        self.sock.sendall(data)
        return sent

    def read_line(self, timeout: float) -> tuple[tuple[float, float], bytes] | None:
        """``((wall, cpu) arrival stamp, line)`` of the next reply; None
        when none came within ``timeout`` seconds."""
        deadline = time.perf_counter() + timeout
        while b"\n" not in self._buf:
            wait = max(deadline - time.perf_counter(), 0.0)
            if not select.select([self.sock], [], [], wait)[0]:
                return None
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise RuntimeError("the server closed the connection")
            self._at = (time.perf_counter(), self.cpu())
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return self._at, line

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()


def scrape(socket_path: str) -> dict[str, float]:
    """``GET /metrics``: every sample, summed over its label sets."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(socket_path)
        s.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
        chunks = []
        while chunk := s.recv(65536):
            chunks.append(chunk)
    body = b"".join(chunks).split(b"\r\n\r\n", 1)[1].decode()
    out: dict[str, float] = {}
    for line in body.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, value = line.rsplit(" ", 1)
        name = name_labels.split("{", 1)[0]
        out[name] = out.get(name, 0.0) + float(value)
    return out


class _References:
    """Canonical reference payloads, plain and observed, per request."""

    def __init__(self, distinct: tuple[Request, ...], errors: list[str]) -> None:
        from repro.machine.export import result_to_dict

        self._refs = {
            r.key + (observe,): checks.canonical(checks.scrub_wall(result_to_dict(result)))
            for observe in (False, True)
            for r, result in checks.references(distinct, errors, observe=observe)
        }

    def check(self, req: Request, line: bytes) -> tuple[str, bool, int]:
        """``(status, correct, wire_elements)`` of one reply line."""
        reply = json.loads(line)
        if reply.get("type") != "result":
            return str(reply.get("type", "missing")), False, 0
        payload = reply["result"]
        ok = checks.canonical(checks.scrub_wall(payload)) == self._refs.get(req.key + (req.observe,))
        return "ok", ok, int(payload.get("wire_elements", 0))


class _Ledger:
    """Requests sent on one connection, matched with their replies.

    While a phase is measured the client only sends and counts arrivals;
    reply lines are parsed and checked in :meth:`settle`, afterwards, so
    the checking does not compete with the server for the CPU.
    """

    def __init__(self, conn: Connection, refs: _References, tally: Tally) -> None:
        self.conn = conn
        self.refs = refs
        self.tally = tally
        self._seq = 0
        self.pending: dict[str, tuple[Request, tuple[float, float]]] = {}
        self.arrived: list[tuple[tuple[float, float], bytes]] = []
        #: ``(reply, wire elements, CPU ms from send to reply or None,
        #: request key)``
        self.replies: list[tuple[Reply, int, float | None, Any]] = []

    @property
    def in_flight(self) -> int:
        return len(self.pending) - len(self.arrived)

    def send(self, req: Request) -> None:
        self._seq += 1
        rid = f"q{self._seq}"
        self.pending[rid] = (req, self.conn.send(req.wire(rid)))

    def receive(self, timeout: float) -> bool:
        """Take one reply line off the connection; False when none came."""
        item = self.conn.read_line(timeout)
        if item is None:
            return False
        self.arrived.append(item)
        return True

    def settle(self, deadline: float) -> None:
        """Wait for the replies still owed (until ``deadline``), then match
        and check every arrived line; a request without one is missing."""
        while self.in_flight > 0 and self.receive(deadline - time.perf_counter()):
            pass
        for at, line in self.arrived:
            req, sent = self.pending.pop(str(json.loads(line).get("id")))
            status, ok, wire = self.refs.check(req, line)
            self.tally.record(ok, f"{req.key} observe={req.observe}: {status}")
            cpu_ms = (at[1] - sent[1]) * 1000.0
            self.replies.append((Reply(sent[0], at[0], status, ok), wire, cpu_ms, req.key))
        for rid, (req, sent) in self.pending.items():
            self.tally.record(False, f"{rid} {req.key}: no reply")
            self.replies.append((Reply(sent[0], None, "missing", False), 0, None, req.key))
        self.pending.clear()
        self.arrived.clear()

    def take(self) -> list[tuple[Reply, int, float | None, Any]]:
        out, self.replies = self.replies, []
        return out


def _closed_window(
    ledger: _Ledger, requests: tuple[Request, ...], window: int
) -> tuple[float, float]:
    """Send ``requests`` keeping ``window`` in flight; returns the CPU and
    the wall-clock seconds from the first send to the last reply."""
    t0, c0 = time.perf_counter(), ledger.conn.cpu()
    todo = list(requests)
    while todo or ledger.in_flight > 0:
        while todo and ledger.in_flight < window:
            ledger.send(todo.pop(0))
        if not ledger.receive(REPLY_GRACE_S):
            break  # the replies still owed are missing
    elapsed = (ledger.conn.cpu() - c0, time.perf_counter() - t0)
    ledger.settle(time.perf_counter())
    return elapsed


@dataclass
class _Measured:
    """What pairs of measured cycles on one connection did."""

    replies: list[tuple[Reply, int, float | None, Any]] = field(default_factory=list)
    #: correct replies per CPU second, per saturated cycle
    rates: list[float] = field(default_factory=list)
    #: the same per wall-clock second
    wall_rates: list[float] = field(default_factory=list)
    #: per sequential cycle, each reply's CPU ms from send to reply
    times: list[list[float]] = field(default_factory=list)
    #: the same in wall-clock ms
    wall: list[list[float]] = field(default_factory=list)
    #: per sequential cycle, each reply's request key
    keys: list[list[Any]] = field(default_factory=list)

    def __iadd__(self, other: "_Measured") -> "_Measured":
        self.replies += other.replies
        self.rates += other.rates
        self.wall_rates += other.wall_rates
        self.times += other.times
        self.keys += other.keys
        self.wall += other.wall
        return self


def _measure(
    ledger: _Ledger, cycles: Iterator[tuple[Request, ...]], t_end: float, pairs: int = 0
) -> _Measured:
    """Pairs of whole cycles, saturated then sequential, until the wall
    clock passes ``t_end`` and at least ``pairs`` have run."""
    out = _Measured()
    done = 0
    while done < pairs or time.perf_counter() < t_end:
        cpu_s, wall_s = _closed_window(ledger, next(cycles), WINDOW)
        got = ledger.take()
        good = sum(1 for r, _, _, _ in got if r.good)
        out.rates.append(good / cpu_s)
        out.wall_rates.append(good / wall_s)
        out.replies += got
        _closed_window(ledger, next(cycles), 1)
        got = ledger.take()
        answered = [(ms, key) for _, _, ms, key in got if ms is not None]
        out.times.append([ms for ms, _ in answered])
        out.keys.append([key for _, key in answered])
        out.wall.append(latencies_ms(r for r, _, _, _ in got))
        out.replies += got
        done += 1
    return out


def run_served(workload: Workload, seed: int, seconds: float, trace: bool) -> Outcome:
    distinct = workload.requests
    tally = Tally()
    refs = _References(distinct, tally.errors)

    with scratch() as tmp, contextlib.ExitStack() as stack:
        # every set-up server stays up and gets an equal share of the
        # measured time, so one slow server process moves a third of the
        # figures, not all of them
        setups, wall_setups, fleet = [], [], []
        for i in range(SETUP_REPEATS):
            # the server's CPU clock starts from zero when it is forked
            t0, c0 = time.perf_counter(), time.process_time()
            server = Server(tmp, f"setup{i}")
            stack.callback(server.stop)
            conn = Connection(server)
            stack.callback(conn.close)
            ledger = _Ledger(conn, refs, tally)
            _closed_window(ledger, distinct, 1)
            setups.append(conn.cpu() - c0)
            wall_setups.append(time.perf_counter() - t0)
            ledger.take()
            fleet.append((server, ledger))

        detail: dict[str, Any] = {
            "window": WINDOW, "servers": SETUP_REPEATS, "setup_runs_cpu_s": setups,
        }
        cycles = stream(workload, seed)
        if not trace:
            got = _Measured()
            slices: list[list[float]] = []
            peaks: list[float] = []
            for server, ledger in fleet:
                t_end = time.perf_counter() + seconds / len(fleet)
                one = _measure(ledger, cycles, 0.0, PEAK_PAIRS)
                peaks.append(tree_peak_mb(server.proc.pid))
                one += _measure(ledger, cycles, t_end)
                slices += cycle_slices(one.times)
                got += one
            latencies = [
                (k, t) for ks, ts in zip(got.keys, got.times) for k, t in zip(ks, ts)
            ]
            q, tail_ms, beyond = median_tail(slices)
            detail.update({"samples": len(latencies), "slices": len(slices),
                           "tail_percentile": q, "tail_beyond": beyond,
                           "saturated_cycles": len(got.rates), "server_peaks_mb": peaks})
            detail["wall"] = {
                "throughput_per_s": median(got.wall_rates),
                "latency_p50_ms": request_median(
                    (k, t) for ks, ts in zip(got.keys, got.wall) for k, t in zip(ks, ts)
                ),
                "latency_tail_ms": median_tail(cycle_slices(got.wall))[1],
                "setup_runs_s": wall_setups,
            }
            return Outcome({
                "throughput_per_cpu_s": median(got.rates),
                "cpu_p50_ms": request_median(latencies),
                "cpu_tail_ms": tail_ms,
                "peak_rss_mb": median(peaks),
                "setup_s": median(setups),
            }, detail, tally)

        # half the time untraced on a set-up server, half on a traced one
        plain_rates = _measure(fleet[-1][1], cycles, time.perf_counter() + seconds / 2).rates
        stack.close()
        spans_out = tmp / "spans.json"
        traced = Server(tmp, "traced", spans_out=spans_out)
        stack.callback(traced.stop)
        conn = Connection(traced)
        stack.callback(conn.close)
        ledger = _Ledger(conn, refs, tally)
        _closed_window(ledger, distinct, 1)
        ledger.take()
        before = scrape(traced.socket_path)
        window_start = time.perf_counter()
        measured = _measure(ledger, cycles, window_start + seconds / 2)
        replies, traced_rates = measured.replies, measured.rates
        window_end = time.perf_counter()
        after = scrape(traced.socket_path)
        conn.close()
        traced.stop()
        records = [
            r for r in json.loads(spans_out.read_text())
            if r["start"] >= window_start and r["end"] <= window_end
        ]
    return _layers(replies, records, before, after, plain_rates, traced_rates,
                   detail, tally)


def _layers(replies: list[tuple[Reply, int, float | None, Any]],
            records: list[dict[str, Any]],
            before: dict[str, float], after: dict[str, float],
            plain_rates: list[float], traced_rates: list[float],
            detail: dict[str, Any], tally: Tally) -> Outcome:
    answered = [(r, w) for r, w, _, _ in replies if r.received is not None]
    units = len(answered)
    unit_ms = sum(latencies_ms(r for r, _ in answered))
    summary = summarize(records)

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    server_ms = delta("repro_service_latency_ms_sum") / delta("repro_service_latency_ms_count")
    run_ms = summary["ms"].get("runtime.run", 0.0) / max(summary["calls"].get("runtime.run", 0), 1)
    # the server's own time claims nothing but RunSession.run's glue
    values = layer_metrics(summary, units, unit_ms, summary["self_ms"].get("runtime.run", 0.0))
    hits = delta("repro_service_session_hits_total")
    misses = delta("repro_service_session_misses_total")
    values.update({
        "machine.elements_sent": sum(w for _, w in answered) / units,
        "service.server_latency_ms": server_ms,
        "service.queue_wait_ms": server_ms - run_ms,
        "service.wire_ms": unit_ms / units - server_ms,
        "service.session_hit_ratio": Ratio(hits, hits + misses, "worker dispatches"),
        "service.batch_size_mean": delta("repro_service_batch_size_sum")
        / delta("repro_service_batch_size_count"),
        "trace.overhead": Ratio(
            1000.0 / median(traced_rates), 1000.0 / median(plain_rates),
            "CPU ms per request at saturation, untraced",
        ),
    })
    detail.update({"traced_units": units, "server_requests": delta("repro_service_latency_ms_count")})
    return Outcome(values, detail, tally)
