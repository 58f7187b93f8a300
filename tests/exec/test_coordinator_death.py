"""Rank workers die with a SIGKILLed coordinator.

A coordinator killed with ``SIGKILL`` runs no teardown, so its rank
workers can only learn of its death from EOF on their sockets.  Under
``fork`` every worker inherits copies of coordinator-side socket ends; a
worker that kept them open would never see EOF and would outlive the
coordinator, reparented to init.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exec.process import _start_method

_COORDINATOR = """
import time
from repro.exec.process import ProcessSession

sessions = [ProcessSession(2), ProcessSession(2)]
pids = []
for session in sessions:
    for rank in range(2):
        handle = session.dispatch(
            rank, "exec.echo", rank, {"payload": rank}, {},
            backend="numpy", count_kernels=False,
        )
        assert session.result(handle).value == rank
        pids.append(session.worker_pid(rank))
print(" ".join(map(str, pids)), flush=True)
time.sleep(120)
"""


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a running (not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - no procfs: ask the kernel
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(_start_method() != "fork", reason="fork start method only")
def test_workers_exit_after_coordinator_sigkill():
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    coordinator = subprocess.Popen(
        [sys.executable, "-c", _COORDINATOR],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        assert coordinator.stdout is not None
        pids = [int(p) for p in coordinator.stdout.readline().split()]
        assert len(pids) == 4 and all(_alive(p) for p in pids)
        coordinator.send_signal(signal.SIGKILL)
        coordinator.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        while any(_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [p for p in pids if _alive(p)]
    finally:
        if coordinator.poll() is None:
            coordinator.kill()
            coordinator.wait()
        if coordinator.stdout is not None:
            coordinator.stdout.close()
    for pid in survivors:  # do not leave them behind for the next test
        os.kill(pid, signal.SIGKILL)
    assert survivors == [], f"rank workers outlived their coordinator: {survivors}"
