"""The scheduler: a bounded queue feeding warm sessions with key affinity.

Three pieces, all owned by the server's event loop:

* :class:`SessionCache` — an LRU pool of warm
  :class:`~repro.runtime.session.RunSession` objects keyed by the
  machine signature ``(p, cost, backend, executor)``.  A hit reuses the
  session's warm machines and matrix cache; the LRU bound evicts (and
  closes) the stalest *idle* session — a session running a batch is
  never evicted from under its worker.
* :class:`RunScheduler` — ``workers`` asyncio tasks drain a **bounded**
  deque.  A full queue makes :meth:`RunScheduler.submit` raise
  :class:`QueueFullError` (the server answers a typed ``429`` reject
  line); nothing is ever buffered without bound.  Each worker takes the
  oldest *runnable* request plus every queued request with the same
  session key (a *batch*, capped at ``batch_limit``), so same-shape
  traffic shares one warm session per dispatch.  Key affinity doubles as
  the concurrency guard: one session never runs two batches at once.
* The blocking ``session.run`` calls execute on a thread
  (``loop.run_in_executor``); every ``repro_service_*`` metric update
  happens on the event-loop thread, so the obs registry needs no locks.

Spans: requests overlap, and :class:`~repro.obs.spans.Observability`
spans are strictly nested — so per-request *durations* live in the
``repro_service_latency_ms`` histogram, and each completion emits a
zero-width ``service.request`` marker span carrying the latency in its
labels (DESIGN.md §"Run service").
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ..machine.export import result_to_dict
from ..runtime.session import RunSession
from .protocol import ServiceRequest, error_response, result_response

__all__ = ["QueueFullError", "RunScheduler", "SessionCache"]

#: one batch never drains more than this many queued requests
DEFAULT_BATCH_LIMIT = 8


class QueueFullError(RuntimeError):
    """The bounded request queue is at capacity (backpressure signal)."""

    def __init__(self, queue_size: int) -> None:
        super().__init__(f"request queue is full ({queue_size} pending)")
        self.queue_size = queue_size


@dataclass
class _CacheEntry:
    session: RunSession
    busy: bool = False


class SessionCache:
    """LRU pool of warm sessions keyed ``(p, cost, backend, executor)``.

    Not thread-safe by design: every call happens on the event-loop
    thread.  ``acquire`` returns the sessions it evicted so the caller
    can close them off-loop (closing a process-executor session joins
    worker processes).
    """

    def __init__(self, max_sessions: int = 8) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self.max_sessions = max_sessions
        self._entries: OrderedDict[tuple[Any, ...], _CacheEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def acquire(
        self, key: tuple[Any, ...]
    ) -> tuple[RunSession, bool, list[RunSession]]:
        """Check out the session for ``key``: ``(session, hit, evicted)``.

        The entry is marked busy until :meth:`release`; a busy entry is
        never handed to a second caller (the scheduler's key affinity
        guarantees it never asks) and never evicted.
        """
        entry = self._entries.get(key)
        if entry is not None:
            if entry.busy:
                raise RuntimeError(f"session {key!r} is already checked out")
            self._entries.move_to_end(key)
            entry.busy = True
            self.hits += 1
            return entry.session, True, []
        self.misses += 1
        entry = _CacheEntry(RunSession(), busy=True)
        self._entries[key] = entry
        evicted: list[RunSession] = []
        idle = [k for k, e in self._entries.items() if not e.busy]
        while len(self._entries) > self.max_sessions and idle:
            stalest = idle.pop(0)
            evicted.append(self._entries.pop(stalest).session)
            self.evictions += 1
        return entry.session, False, evicted

    def release(self, key: tuple[Any, ...]) -> None:
        """Check the session back in (it stays warm for the next hit)."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.busy = False

    def close(self) -> None:
        """Close every pooled session (idempotent; shutdown path)."""
        for entry in self._entries.values():
            entry.session.close()
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Counters for ``op: stats`` payloads and tests."""
        return {
            "sessions": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass
class _Item:
    request: ServiceRequest
    future: "asyncio.Future[dict[str, Any]]"
    enqueued_at: float = field(default_factory=time.perf_counter)


class RunScheduler:
    """Bounded request queue + worker pool over a :class:`SessionCache`.

    ``obs`` is the server's shared :class:`~repro.obs.spans.Observability`
    recorder; all updates to it happen on the event-loop thread.
    ``on_batch_start`` is a test hook called in the worker *thread* with
    the batch's requests before the first run (tests use it to hold a
    worker and provoke queue-full / eviction races deterministically).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_size: int = 64,
        max_sessions: int = 8,
        batch_limit: int = DEFAULT_BATCH_LIMIT,
        obs: Any = None,
        on_batch_start: Callable[[list[ServiceRequest]], None] | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        if batch_limit < 1:
            raise ValueError(f"batch_limit must be >= 1, got {batch_limit}")
        self.workers = workers
        self.queue_size = queue_size
        self.batch_limit = batch_limit
        self.sessions = SessionCache(max_sessions)
        self._pending: deque[_Item] = deque()
        self._busy_keys: set[tuple[Any, ...]] = set()
        self._tasks: list[asyncio.Task[None]] = []
        self._wake = asyncio.Event()
        self._closed = False
        self._obs = obs
        self._on_batch_start = on_batch_start
        self.completed = 0
        self.errors = 0
        self.rejected = 0
        self.discarded = 0
        if obs is not None and obs.enabled:
            # pre-register the metric families so a fresh /metrics scrape
            # shows the full schema before the first request arrives
            m = obs.metrics
            m.counter("repro_service_requests_total",
                      "Run requests completed, by status")
            m.counter("repro_service_rejects_total",
                      "Requests rejected because the bounded queue was full")
            m.counter("repro_service_discarded_total",
                      "Completed runs whose client had already disconnected")
            m.gauge("repro_service_queue_depth", "Requests waiting in the queue")
            m.gauge("repro_service_sessions", "Warm sessions currently pooled")
            m.histogram("repro_service_latency_ms",
                        "Wall-clock queue+run latency per request")
            m.histogram("repro_service_batch_size",
                        "Requests per worker dispatch",
                        buckets=(1.0, 2.0, 4.0, 8.0, 16.0))
            m.counter("repro_service_session_hits_total",
                      "Dispatches served by an already-warm session")
            m.counter("repro_service_session_misses_total",
                      "Dispatches that had to build a fresh session")
            m.counter("repro_service_session_evictions_total",
                      "Warm sessions closed by the LRU bound")
            m.counter("repro_service_sim_time_ms_total",
                      "Sum of served t_total_ms (reconciles with the "
                      "per-result PhaseBreakdown totals)")
            m.counter("repro_service_supervisor_events_total",
                      "Real-fault supervisor events accumulated from served "
                      "supervisor summaries, by kind")

    # ------------------------------------------------------------------
    # obs helpers (event-loop thread only)
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: float = 1, **labels: Any) -> None:
        if self._obs is not None:
            self._obs.count(name, amount, **labels)

    def _observe(self, name: str, value: float, **labels: Any) -> None:
        if self._obs is not None:
            self._obs.observe(name, value, **labels)

    def _gauge_depth(self) -> None:
        if self._obs is not None and self._obs.enabled:
            self._obs.metrics.gauge("repro_service_queue_depth").set(
                len(self._pending)
            )
            self._obs.metrics.gauge("repro_service_sessions").set(
                len(self.sessions)
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker tasks (call from inside the running loop)."""
        if self._tasks:
            raise RuntimeError("scheduler already started")
        self._closed = False
        self._tasks = [
            asyncio.get_running_loop().create_task(
                self._worker(), name=f"repro-service-worker-{i}"
            )
            for i in range(self.workers)
        ]

    async def stop(self) -> None:
        """Drain in-flight work, fail queued requests, close the pool."""
        self._closed = True
        self._wake.set()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
            self._tasks = []
        for item in list(self._pending):
            if not item.future.done():
                item.future.set_result(
                    error_response(
                        item.request.id, "server is shutting down", code=503
                    )
                )
        self._pending.clear()
        self._gauge_depth()
        # closing sessions joins worker processes; keep it off the loop
        await asyncio.get_running_loop().run_in_executor(
            None, self.sessions.close
        )

    # ------------------------------------------------------------------
    # submission (event-loop thread)
    # ------------------------------------------------------------------
    def submit(self, request: ServiceRequest) -> "asyncio.Future[dict[str, Any]]":
        """Enqueue one run request; the future resolves to a response dict.

        Raises :class:`QueueFullError` when the bounded queue is at
        capacity — the caller answers with a 429 reject line.
        """
        if request.config is None:
            raise ValueError(f"cannot schedule control op {request.op!r}")
        if self._closed:
            raise RuntimeError("scheduler is stopped")
        if len(self._pending) >= self.queue_size:
            self.rejected += 1
            self._count("repro_service_rejects_total")
            raise QueueFullError(self.queue_size)
        future: asyncio.Future[dict[str, Any]] = (
            asyncio.get_running_loop().create_future()
        )
        self._pending.append(_Item(request=request, future=future))
        self._gauge_depth()
        self._wake.set()
        return future

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _take_batch(self) -> list[_Item] | None:
        """The oldest runnable item + queued same-key items (or None).

        An item is runnable when its session key is not checked out by
        another worker; same-key follow-ups jump the queue to share the
        warm session (bounded by ``batch_limit``), which is exactly the
        reordering "batches compatible requests" names.
        """
        # a cancelled future means the client disconnected while queued:
        # skip the run entirely instead of computing into the void
        for item in [it for it in self._pending if it.future.cancelled()]:
            self._pending.remove(item)
            self.discarded += 1
            self._count("repro_service_discarded_total")
        lead: _Item | None = None
        for item in self._pending:
            key = item.request.config.machine_key()  # type: ignore[union-attr]
            if key not in self._busy_keys:
                lead = item
                break
        if lead is None:
            return None
        self._pending.remove(lead)
        key = lead.request.config.machine_key()  # type: ignore[union-attr]
        batch = [lead]
        if self.batch_limit > 1:
            rest: deque[_Item] = deque()
            while self._pending and len(batch) < self.batch_limit:
                item = self._pending.popleft()
                item_key = item.request.config.machine_key()  # type: ignore[union-attr]
                if item_key == key:
                    batch.append(item)
                else:
                    rest.append(item)
            rest.extend(self._pending)
            self._pending = rest
        self._busy_keys.add(key)
        return batch

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = self._take_batch() if self._pending else None
            if batch is None:
                if self._closed:
                    return
                # Nothing runnable *right now* — the queue is empty, or
                # every queued key is checked out by another worker.
                # Sleep until a submit or a finishing batch sets the wake
                # event.  Spinning here instead would starve the event
                # loop (this coroutine never yields), which blocks the
                # very run_in_executor completion that frees the key.
                self._wake.clear()
                await self._wake.wait()
                continue
            self._gauge_depth()
            key = batch[0].request.config.machine_key()  # type: ignore[union-attr]
            outcomes: list[tuple[str, Any]]
            try:
                session, hit, evicted = self.sessions.acquire(key)
                self._count(
                    "repro_service_session_hits_total"
                    if hit
                    else "repro_service_session_misses_total"
                )
                if evicted:
                    self._count(
                        "repro_service_session_evictions_total", len(evicted)
                    )
                self._observe("repro_service_batch_size", len(batch))
                self._gauge_depth()
                try:
                    outcomes = await loop.run_in_executor(
                        None,
                        self._run_batch,
                        session,
                        [item.request for item in batch],
                        evicted,
                    )
                finally:
                    self.sessions.release(key)
            except Exception as exc:  # noqa: BLE001 - a worker must not die
                outcomes = [
                    ("error", f"{type(exc).__name__}: {exc}")
                ] * len(batch)
            finally:
                self._busy_keys.discard(key)
            self._wake.set()  # a key just freed up: re-scan the queue
            for item, outcome in zip(batch, outcomes):
                self._complete(item, outcome)

    def _run_batch(
        self,
        session: RunSession,
        requests: list[ServiceRequest],
        evicted: list[RunSession],
    ) -> list[tuple[str, Any]]:
        """Run one batch on the worker thread; never raises."""
        for stale in evicted:
            stale.close()
        if self._on_batch_start is not None:
            self._on_batch_start(requests)
        outcomes: list[tuple[str, Any]] = []
        for request in requests:
            assert request.config is not None
            try:
                obs = None
                if request.observe:
                    from ..obs.spans import Observability

                    # one recorder per run (the attach contract); the
                    # snapshot rides home inside the result payload
                    obs = Observability(
                        scheme=request.config.scheme,
                        n=request.config.n,
                        served=True,
                    )
                result = session.run(request.config, obs=obs)
                outcomes.append(("ok", result_to_dict(result)))
            except Exception as exc:  # noqa: BLE001 - the service must survive
                outcomes.append(
                    ("error", f"{type(exc).__name__}: {exc}")
                )
        return outcomes

    # ------------------------------------------------------------------
    # completion (event-loop thread)
    # ------------------------------------------------------------------
    def _complete(self, item: _Item, outcome: tuple[str, Any]) -> None:
        status, payload = outcome
        latency_ms = (time.perf_counter() - item.enqueued_at) * 1000.0
        if status == "ok":
            self.completed += 1
            response = result_response(item.request.id, payload)
            self._count("repro_service_sim_time_ms_total", payload["t_total_ms"])
            summary = payload.get("supervisor_summary")
            if summary is not None:
                for kind in ("crashes", "hangs", "restarts", "replays",
                             "downgrades", "escalations"):
                    if summary.get(kind):
                        self._count(
                            "repro_service_supervisor_events_total",
                            summary[kind], kind=kind,
                        )
        else:
            self.errors += 1
            response = error_response(item.request.id, payload, code=500)
        self._count("repro_service_requests_total", status=status)
        self._observe("repro_service_latency_ms", latency_ms, status=status)
        if self._obs is not None and self._obs.enabled:
            # marker span: durations live in the histogram (module docstring)
            with self._obs.span(
                "service.request",
                id=item.request.id,
                status=status,
                latency_ms=round(latency_ms, 3),
            ):
                pass
        if item.future.done():  # client vanished mid-run
            self.discarded += 1
            self._count("repro_service_discarded_total")
            return
        item.future.set_result(response)

    def stats(self) -> dict[str, Any]:
        """Queue + pool counters for ``op: stats`` and the CLI."""
        return {
            "queue_depth": len(self._pending),
            "workers": self.workers,
            "queue_size": self.queue_size,
            "completed": self.completed,
            "errors": self.errors,
            "rejected": self.rejected,
            "discarded": self.discarded,
            **self.sessions.stats(),
        }
