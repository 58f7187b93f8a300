"""Per-test hard timeout for the executor suite.

Real worker processes can wedge (a worker that never answers its pipe
would hang ``result()`` forever), and pytest-timeout is not a repo
dependency — so this conftest arms a SIGALRM watchdog around every test
under ``tests/exec/``.  A test that overruns fails with a traceback
pointing at the blocked line instead of hanging the whole suite; the
session reaper in the top-level conftest then clears any workers the
interrupted test left behind.
"""

from __future__ import annotations

import signal

import pytest

#: generous ceiling — the slowest differential cell (recovery grid under
#: the process executor) finishes in a few seconds; anything near this is
#: a deadlock, not a slow test
TEST_TIMEOUT_S = 180


class ExecTestTimeout(Exception):
    pass


@pytest.fixture(autouse=True)
def _exec_test_timeout():
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def _on_alarm(signum, frame):
        raise ExecTestTimeout(
            f"tests/exec test exceeded {TEST_TIMEOUT_S}s — "
            "likely a wedged worker process"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
