"""Observed runs take the warm path that serves traffic.

A recorder is bound to one run's trace, not to a machine, so an observed
run reuses a session's warm machine like any clean run.  These tests pin
that the reuse is invisible: the observed result equals an observed run
on a fresh machine, the session builds one machine, and the machine goes
back to ``NULL_OBS`` afterwards — even when the run raises — so the next
unobserved run is byte-identical to one on a never-observed machine.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

import pytest

from repro.machine import Machine
from repro.machine.export import result_to_dict
from repro.obs import NULL_OBS, Observability
from repro.runtime import RunRequest, RunSession
from repro.service import RunScheduler
from repro.service.protocol import parse_request_line
from repro.sparse import random_sparse
from repro.sweep import canonical_json


def _scrub_wall(obj: Any) -> Any:
    """``obj`` without the ``wall_*`` keys (they differ run to run)."""
    if isinstance(obj, dict):
        return {
            k: _scrub_wall(v) for k, v in obj.items() if not k.startswith("wall_")
        }
    if isinstance(obj, list):
        return [_scrub_wall(v) for v in obj]
    return obj


def _canonical(result) -> str:
    return canonical_json(_scrub_wall(result_to_dict(result)))


@pytest.fixture
def built(monkeypatch):
    """Every machine a session builds, in order."""
    machines: list[Machine] = []

    class CountingMachine(Machine):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            machines.append(self)

    monkeypatch.setattr("repro.runtime.session.Machine", CountingMachine)
    return machines


@pytest.mark.parametrize("executor", ["sim", "process"])
@pytest.mark.parametrize("partition", ["row", "mesh2d"])
@pytest.mark.parametrize("scheme", ["sfc", "cfs", "ed"])
def test_observed_run_on_a_warm_machine(built, scheme, partition, executor):
    request = RunRequest(
        scheme=scheme, n=48, n_procs=4, partition=partition, seed=11,
        executor=executor,
    )
    with RunSession() as fresh_session:
        fresh = fresh_session.run(request, obs=Observability(scheme=scheme))
    built.clear()

    with RunSession() as session:
        never_observed = session.run(request)
        (machine,) = built
        warm = session.run(request, obs=Observability(scheme=scheme))
        assert machine.obs is NULL_OBS
        # a run that raises after the recorder is bound: a matrix whose
        # shape the plan does not cover
        plan = request.partition_method().plan((48, 48), 4)
        with pytest.raises(ValueError, match="shape"):
            session.run(
                request, matrix=random_sparse((40, 40), 0.1, seed=1),
                plan=plan, obs=Observability(),
            )
        assert machine.obs is NULL_OBS
        after = session.run(request)
    assert built == [machine]  # every run above reused the one machine
    assert warm.observability is not None
    assert _canonical(warm) == _canonical(fresh)
    assert canonical_json(result_to_dict(after)) == canonical_json(
        result_to_dict(never_observed)
    )


def test_a_recorder_covers_one_run():
    request = RunRequest(scheme="ed", n=32, n_procs=2)
    obs = Observability()
    with RunSession() as session:
        first = session.run(request, obs=obs)
        with pytest.raises(ValueError, match="fresh recorder"):
            session.run(request, obs=obs)
        (machine,) = session._machines.values()
        assert machine.obs is NULL_OBS
    # the recorder still reads its own run's trace after the machine moved on
    assert obs.snapshot().to_dict() == first.observability.to_dict()


def test_served_observed_request_reuses_the_warm_machine(built):
    def request(**extra: Any):
        payload = {"scheme": "ed", "n": 32, "n_procs": 2, "seed": 3, **extra}
        return parse_request_line(json.dumps(payload))

    async def scenario():
        scheduler = RunScheduler(workers=1, queue_size=8)
        scheduler.start()
        try:
            plain = await scheduler.submit(request(id="plain"))
            observed = await scheduler.submit(request(id="observed", observe=True))
        finally:
            await scheduler.stop()
        return scheduler.stats(), plain, observed

    stats, plain, observed = asyncio.run(scenario())
    assert (stats["misses"], stats["hits"]) == (1, 1)
    assert len(built) == 1  # the observed run reused the warm machine
    assert "observability" in observed["result"]
    assert observed["result"]["t_total_ms"] == plain["result"]["t_total_ms"]
