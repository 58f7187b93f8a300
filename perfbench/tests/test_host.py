"""The clocks and process settings every run relies on."""

import os
import platform
import subprocess
import sys
import time

from harness.host import MALLOC_ENV, cpu_clock, static_malloc

BUSY = "import time\nt = time.process_time() + 0.3\nwhile time.process_time() < t: pass\n" \
       "import sys; sys.stdin.read()"


def test_cpu_clock_counts_this_process_and_not_its_waits():
    clock = cpu_clock()
    c0 = clock()
    time.sleep(0.2)
    assert clock() - c0 < 0.1
    t = time.process_time() + 0.1
    while time.process_time() < t:
        pass
    assert clock() - c0 >= 0.1


def test_cpu_clock_adds_the_childs_cpu_time():
    child = subprocess.Popen([sys.executable, "-c", BUSY], stdin=subprocess.PIPE)
    try:
        clock = cpu_clock(child.pid)
        deadline = time.monotonic() + 10
        while clock() - time.process_time() < 0.3 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert clock() - time.process_time() >= 0.3
    finally:
        child.communicate(b"")


def test_static_malloc_reaches_the_processes_a_run_starts(monkeypatch):
    for name in MALLOC_ENV:
        monkeypatch.delenv(name, raising=False)
    took = static_malloc()
    assert {k: os.environ[k] for k in MALLOC_ENV} == MALLOC_ENV
    assert took is (platform.libc_ver()[0] == "glibc")
