"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import Machine, unit_cost_model
from repro.partition import ColumnPartition, Mesh2DPartition, RowPartition
from repro.sparse import COOMatrix, random_sparse

try:  # hypothesis profiles for the chaos suite (dev fast, CI thorough)
    from hypothesis import HealthCheck, settings as hyp_settings

    hyp_settings.register_profile(
        "ci",
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        derandomize=True,
    )
    hyp_settings.register_profile(
        "dev",
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    # no load_profile here: the default profile keeps its stock settings
    # for the pre-existing property suites; select with
    # `--hypothesis-profile=ci` (the CI chaos job) or `=dev` (quick local).
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pass


@pytest.fixture(autouse=True)
def _reap_executor_leaks():
    """Kill orphaned rank workers.

    The process executor owns OS processes (one worker per rank).
    Sessions tear themselves down via ``Machine.shutdown()`` /
    finalizers, but a test that fails mid-run — or kills a rank the hard
    way — must not leak workers into the next test.  Runs after *every*
    test; an O(1) no-op when nothing leaked.
    """
    yield
    import multiprocessing
    import time

    from repro.exec import reap_all_sessions

    reap_all_sessions()
    # a worker SIGKILLed moments ago may not have exited yet; give kills
    # in flight a short window to land — a genuine leak never drains
    deadline = time.monotonic() + 2.0
    while True:
        orphans = [
            child.name
            for child in multiprocessing.active_children()
            if child.name.startswith("repro-rank-")
        ]
        if not orphans or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    assert not orphans, f"test leaked rank worker processes: {orphans}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_matrix() -> COOMatrix:
    """A 12x12 sparse array, s = 0.15, deterministic."""
    return random_sparse((12, 12), 0.15, seed=7)


@pytest.fixture
def medium_matrix() -> COOMatrix:
    """A 60x60 sparse array divisible by common processor counts."""
    return random_sparse((60, 60), 0.1, seed=21)


@pytest.fixture
def rect_matrix() -> COOMatrix:
    """A non-square matrix to catch row/column mixups."""
    return random_sparse((18, 30), 0.2, seed=3)


@pytest.fixture(params=["row", "column", "mesh2d"])
def any_partition(request):
    """Each of the paper's three partition methods."""
    return {
        "row": RowPartition(),
        "column": ColumnPartition(),
        "mesh2d": Mesh2DPartition(),
    }[request.param]


@pytest.fixture(params=["crs", "ccs"])
def compression_name(request) -> str:
    return request.param


@pytest.fixture(params=["sfc", "cfs", "ed"])
def scheme_name(request) -> str:
    return request.param


@pytest.fixture
def unit_machine_factory():
    """Factory for machines with T_Startup = T_Data = T_Operation = 1."""

    def make(n_procs: int) -> Machine:
        return Machine(n_procs, cost=unit_cost_model())

    return make
