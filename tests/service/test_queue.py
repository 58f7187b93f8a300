"""Scheduler internals: the LRU session pool, batching and backpressure."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service import QueueFullError, RunScheduler, SessionCache
from repro.service.protocol import parse_request_line


def run_request(n_procs: int = 2, **extra):
    payload = {"scheme": "ed", "n": 32, "n_procs": n_procs, **extra}
    return parse_request_line(json.dumps(payload))


KEY2 = run_request(2).config.machine_key()
KEY4 = run_request(4).config.machine_key()


class TestSessionCache:
    def test_hit_miss_accounting(self):
        cache = SessionCache(max_sessions=2)
        try:
            _, hit, evicted = cache.acquire(KEY2)
            assert (hit, evicted) == (False, [])
            cache.release(KEY2)
            session, hit, _ = cache.acquire(KEY2)
            assert hit is True
            cache.release(KEY2)
            assert cache.stats() == {
                "sessions": 1, "hits": 1, "misses": 1, "evictions": 0,
            }
        finally:
            cache.close()

    def test_lru_bound_evicts_the_stalest_idle_session(self):
        cache = SessionCache(max_sessions=1)
        try:
            first, _, _ = cache.acquire(KEY2)
            cache.release(KEY2)
            _, _, evicted = cache.acquire(KEY4)
            assert evicted == [first]
            cache.release(KEY4)
            assert len(cache) == 1
            assert cache.evictions == 1
            for stale in evicted:
                stale.close()
        finally:
            cache.close()

    def test_busy_sessions_are_never_evicted(self):
        cache = SessionCache(max_sessions=1)
        try:
            cache.acquire(KEY2)  # still checked out
            _, _, evicted = cache.acquire(KEY4)
            assert evicted == []  # over the bound, but the entry is busy
            assert len(cache) == 2
            cache.release(KEY2)
            cache.release(KEY4)
        finally:
            cache.close()

    def test_double_checkout_is_a_bug(self):
        cache = SessionCache(max_sessions=2)
        try:
            cache.acquire(KEY2)
            with pytest.raises(RuntimeError, match="already checked out"):
                cache.acquire(KEY2)
            cache.release(KEY2)
        finally:
            cache.close()

    def test_bad_bound(self):
        with pytest.raises(ValueError, match="max_sessions"):
            SessionCache(max_sessions=0)


class TestSchedulerQueue:
    """submit/_take_batch logic, no workers started (deterministic)."""

    def test_bounded_queue_rejects_at_capacity(self):
        async def scenario():
            scheduler = RunScheduler(workers=1, queue_size=2)
            scheduler.submit(run_request())
            scheduler.submit(run_request())
            with pytest.raises(QueueFullError, match="queue is full"):
                scheduler.submit(run_request())
            assert scheduler.rejected == 1
            assert scheduler.stats()["queue_depth"] == 2

        asyncio.run(scenario())

    def test_batch_groups_same_key_requests(self):
        async def scenario():
            scheduler = RunScheduler(workers=1, queue_size=16)
            scheduler.submit(run_request(2, id="a"))
            scheduler.submit(run_request(4, id="b"))
            scheduler.submit(run_request(2, id="c", scheme="sfc"))
            batch = scheduler._take_batch()
            assert [item.request.id for item in batch] == ["a", "c"]
            # the foreign-key request stays queued, in order
            assert [i.request.id for i in scheduler._pending] == ["b"]
            assert KEY2 in scheduler._busy_keys

        asyncio.run(scenario())

    def test_busy_key_affinity_skips_to_the_next_runnable(self):
        async def scenario():
            scheduler = RunScheduler(workers=2, queue_size=16)
            scheduler.submit(run_request(2, id="a"))
            first = scheduler._take_batch()
            assert [i.request.id for i in first] == ["a"]
            scheduler.submit(run_request(2, id="b"))  # same key: blocked
            scheduler.submit(run_request(4, id="c"))  # different key: runnable
            second = scheduler._take_batch()
            assert [i.request.id for i in second] == ["c"]
            assert scheduler._take_batch() is None  # "b" waits for the key

        asyncio.run(scenario())

    def test_batch_limit_caps_a_dispatch(self):
        async def scenario():
            scheduler = RunScheduler(workers=1, queue_size=16, batch_limit=2)
            for i in range(4):
                scheduler.submit(run_request(2, id=f"r{i}"))
            batch = scheduler._take_batch()
            assert [i.request.id for i in batch] == ["r0", "r1"]
            assert len(scheduler._pending) == 2

        asyncio.run(scenario())

    def test_cancelled_futures_are_purged_not_run(self):
        async def scenario():
            scheduler = RunScheduler(workers=1, queue_size=16)
            doomed = scheduler.submit(run_request(2, id="gone"))
            scheduler.submit(run_request(2, id="kept"))
            doomed.cancel()
            batch = scheduler._take_batch()
            assert [i.request.id for i in batch] == ["kept"]
            assert scheduler.discarded == 1

        asyncio.run(scenario())

    def test_control_ops_cannot_be_scheduled(self):
        async def scenario():
            scheduler = RunScheduler(workers=1, queue_size=4)
            with pytest.raises(ValueError, match="control op"):
                scheduler.submit(parse_request_line(b'{"op": "ping"}'))

        asyncio.run(scenario())

    def test_stop_fails_queued_requests_with_503(self):
        async def scenario():
            scheduler = RunScheduler(workers=1, queue_size=4)
            future = scheduler.submit(run_request(2, id="late"))
            await scheduler.stop()
            response = future.result()
            assert response["type"] == "error"
            assert response["code"] == 503
            with pytest.raises(RuntimeError, match="stopped"):
                scheduler.submit(run_request())

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "kwargs", [{"workers": 0}, {"queue_size": 0}, {"batch_limit": 0}]
    )
    def test_bad_bounds(self, kwargs):
        with pytest.raises(ValueError):
            RunScheduler(**kwargs)


class TestSchedulerEndToEnd:
    def test_workers_drain_the_queue_and_keep_sessions_warm(self):
        async def scenario():
            scheduler = RunScheduler(workers=1, queue_size=16)
            scheduler.start()
            try:
                futures = [
                    scheduler.submit(run_request(2, id=f"r{i}", seed=i))
                    for i in range(3)
                ]
                responses = await asyncio.gather(*futures)
            finally:
                await scheduler.stop()
            assert [r["type"] for r in responses] == ["result"] * 3
            assert {r["id"] for r in responses} == {"r0", "r1", "r2"}
            stats = scheduler.stats()
            assert stats["completed"] == 3
            assert stats["misses"] == 1  # one cold session built...
            assert stats["sessions"] == 0  # ...and closed by stop()

        asyncio.run(scenario())

    def test_a_failing_run_answers_500_and_spares_the_rest(self, monkeypatch):
        from repro.runtime.session import RunSession

        real_run = RunSession.run

        def flaky_run(self, request, **kwargs):
            if request.seed == 13:
                raise ValueError("synthetic run failure")
            return real_run(self, request, **kwargs)

        monkeypatch.setattr(RunSession, "run", flaky_run)

        async def scenario():
            scheduler = RunScheduler(workers=1, queue_size=16)
            scheduler.start()
            try:
                bad = scheduler.submit(run_request(2, id="bad", seed=13))
                good = scheduler.submit(run_request(2, id="good"))
                responses = await asyncio.gather(bad, good)
            finally:
                await scheduler.stop()
            by_id = {r["id"]: r for r in responses}
            assert by_id["bad"]["type"] == "error"
            assert by_id["bad"]["code"] == 500
            assert "Traceback" not in by_id["bad"]["error"]
            assert by_id["good"]["type"] == "result"
            assert scheduler.errors == 1

        asyncio.run(scenario())
