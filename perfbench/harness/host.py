"""Host fingerprint, CPU clocks and process-tree peak memory.

Every result carries the fingerprint, so a comparison of figures taken on
different hosts (different core counts, CPU or library versions) is
visible instead of passing silently.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import resource
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = [
    "CHECKOUT", "MALLOC_ENV", "cpu_clock", "fingerprint", "pin_one_cpu", "scratch",
    "static_malloc", "steal_s", "tree_peak_mb",
]

#: the root of the checkout the benchmark runs in
CHECKOUT = Path(__file__).resolve().parents[2]


@contextlib.contextmanager
def scratch() -> Iterator[Path]:
    """A private temporary directory inside the checkout, removed after."""
    parent = CHECKOUT / ".perfbench-tmp"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()  # only when no other run is using it


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


def fingerprint() -> dict[str, Any]:
    """Cores, Python, numpy, CPU model and L3 size of this host."""
    import numpy

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 0
    return {
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": model or platform.processor() or platform.machine(),
        "l3": l3 or "unknown",
        "platform": platform.platform(),
    }


def pin_one_cpu() -> int | None:
    """Keep this process, and every process it starts, on one CPU (the
    lowest it may use); returns that CPU, or None where affinity is not
    supported.

    Every workload is single-core by design: the sim executor, and one
    GIL-bound server.  Left free to use both vCPUs of a 2-vCPU VM, the
    served client and server did, and the hypervisor then took a third
    of the run's CPU time (steal) and throughput fell from about 155 to
    100 requests/s; on one CPU the steal stayed near zero.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[0]


#: glibc malloc's thresholds for every process of a run: blocks under
#: 32 MiB come from the heap, and the heap is never trimmed below 1 GiB
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}


def static_malloc() -> bool:
    """Fix glibc malloc's mmap and trim thresholds (:data:`MALLOC_ENV`) in
    this process and, through the environment, in every process it
    starts; returns whether this process took them (False off glibc).

    Left to itself, glibc raises its mmap threshold each time a block it
    had mmapped is freed, so which arrays come from the heap, and with
    them peak memory and speed, depend on the order of earlier frees.
    Over five ``direct-grid-n2000`` runs peak memory read 93.9 or 110.4
    MB and the p50 spread 0.12 (throughput 0.09).  With fixed thresholds
    five runs all read 96.3 MB, and p50 spread 0.03 (throughput 0.05).
    The program's allocations are still made and counted; what no
    longer varies is whether a freed array's pages go back to the kernel.
    """
    os.environ.update(MALLOC_ENV)
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3  # from <malloc.h>
    return bool(
        mallopt(m_mmap_threshold, int(MALLOC_ENV["MALLOC_MMAP_THRESHOLD_"]))
        and mallopt(m_trim_threshold, int(MALLOC_ENV["MALLOC_TRIM_THRESHOLD_"]))
    )


def cpu_clock(pid: int | None = None) -> Callable[[], float]:
    """A clock that reads the CPU seconds used so far by this process
    (every thread) plus, when ``pid`` is given, by that process (a
    ``repro serve`` child, every thread); the child must still be alive
    when the clock is read.

    The benchmark times its units with this clock, not the wall clock.
    On a shared host the wall-clock time of the same work moves with
    whatever else the CPU runs: with a busy process on the same CPU a
    cycle of nine n=2000 runs took 1.81 s of wall-clock time against
    1.01 s alone, while its CPU time read 1.01 s both times.  Time the
    hypervisor takes (steal) is not counted either, where the kernel
    accounts for it (``CONFIG_PARAVIRT_TIME_ACCOUNTING``).  Time spent
    waiting, such as for an fsync, is not counted.
    """
    if pid is None:
        return time.process_time
    # Linux's CPU clock of another whole process: CPUCLOCK_SCHED (2) of
    # pid, as clock_getcpuclockid(3) makes it
    child = ((~pid) << 3) | 2

    def both() -> float:
        return time.process_time() + time.clock_gettime(child)

    return both


def steal_s() -> float:
    """CPU time the hypervisor has taken from this host's CPUs since boot,
    in seconds (0 where it is not reported).  A run's share of it tells
    a slow run on a busy host from a slow program."""
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    if len(fields) < 9 or fields[0] != "cpu":
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _hwm_kb(pid: int) -> int:
    for line in _read(f"/proc/{pid}/status").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    try:
        entries = os.listdir("/proc")
    except OSError:
        return []
    for entry in entries:
        if not entry.isdigit():
            continue
        stat = _read(f"/proc/{entry}/stat")
        # the command name may hold spaces: ppid is the 2nd field after ")"
        tail = stat.rpartition(")")[2].split()
        if len(tail) >= 2:
            children.setdefault(int(tail[1]), []).append(int(entry))
    out: list[int] = []
    todo = [root]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def tree_peak_mb(root: int | None = None) -> float:
    """Peak resident memory of a process and its live descendants (rank
    workers), in MiB: this process by default, else the child ``root``
    (a ``repro serve`` process) without this one.

    Call it while they are still alive.  Each process's peak is its own
    high-water mark, so the sum is an upper bound on the simultaneous
    peak of the tree.
    """
    if root is None:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        pids = _descendants(os.getpid())
    else:
        own_kb = _hwm_kb(root)
        pids = _descendants(root)
    return (own_kb + sum(_hwm_kb(pid) for pid in pids)) / 1024.0
