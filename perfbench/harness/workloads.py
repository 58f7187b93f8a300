"""Seeded, pure request streams for the three workloads.

A workload is a fixed set of *distinct* requests.  Its stream is an
endless sequence of *cycles*; each cycle is a seeded permutation of the
distinct set, so every cycle does the same work in a different order and
a run that stops on a whole cycle measures the same mix every time.  The
workload seed decides the orders (and which served requests are
observed); the matrix samples follow the published tables' seed recipe.
The program under test only ever sees the generated requests.

Nothing here imports the program, so the streams can be tested (and
listed) without it.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator

__all__ = [
    "DIRECT_GRID",
    "SERVED_SMALL",
    "SETUP_REPEATS",
    "SWEEP_ORDERS",
    "SWEEP_TABLES",
    "WORKLOADS",
    "Request",
    "Workload",
    "closed_loop",
    "cycle",
    "manifest_dict",
    "stream",
]

SCHEMES = ("sfc", "cfs", "ed")

#: requests of the served stream at this stride carry ``observe: true``
OBSERVE_EVERY = 4

#: cold set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Request:
    """One unit of work, by value: everything a run needs."""

    scheme: str
    partition: str
    n: int
    n_procs: int
    sparse_ratio: float
    seed: int
    observe: bool = False

    @property
    def key(self) -> tuple[Any, ...]:
        """Identity of the run, ignoring whether it is observed (which
        may not change the result)."""
        return (self.scheme, self.partition, self.n, self.n_procs,
                self.sparse_ratio, self.seed)

    def wire(self, request_id: str) -> dict[str, Any]:
        """The ``repro serve`` JSONL request object."""
        out: dict[str, Any] = {
            "id": request_id, "scheme": self.scheme, "n": self.n,
            "n_procs": self.n_procs, "partition": self.partition,
            "compression": "crs", "sparse_ratio": self.sparse_ratio,
            "seed": self.seed, "backend": "numpy", "executor": "sim",
        }
        if self.observe:
            out["observe"] = True
        return out


@dataclass(frozen=True)
class Workload:
    """A named workload: its kind and distinct requests.  Why each
    exists is recorded in BENCHMARK.json and perfbench/LAYERS.md."""

    name: str
    #: "closed" (one in-process caller), "served" (closed loops over
    #: ``repro serve``) or "sweep" (closed loop of run_sweep calls)
    kind: str
    #: the distinct requests: what a set-up warms and a cycle permutes
    requests: tuple[Request, ...]


def _rng(*parts: object) -> random.Random:
    # str seeds hash with SHA-512 inside random.seed: stable across runs
    # and independent of PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in parts))


#: the published tables' base seed; every matrix sample follows their
#: recipe ``TABLE_SEED + n + 131 * p``.  The samples are the same for
#: every workload seed, so each unit's output is pinned in golden.json
#: and a change that moves the simulated ledger fails its units.
TABLE_SEED = 2002


def _sample_seed(n: int, n_procs: int) -> int:
    return TABLE_SEED + n + 131 * n_procs


_GRID = tuple(
    Request(s, p, 2000, 16, 0.05, _sample_seed(2000, 16))
    for s in SCHEMES for p in ("row", "column", "mesh2d")
)
# each n=480 request twice: with the two sizes at 1:1 the median latency
# would sit in the gap between their latencies and jump between them
_SERVED = tuple(
    Request(s, p, n, 4, 0.1, _sample_seed(n, 4))
    for n in (120, 480, 480) for s in SCHEMES for p in ("row", "column", "mesh2d")
)


def _sweep_requests(schemes: list[str], partitions: list[str]) -> tuple[Request, ...]:
    # the manifest's expansion order (partition → n → scheme) with the
    # table seed recipe; the driver checks both against Manifest.expand()
    return tuple(
        Request(s, p, n, 2, 0.1, _sample_seed(n, 2))
        for p in partitions for n in (400, 1000, 2400) for s in schemes
    )


_SWEEP = _sweep_requests(list(SCHEMES), ["row", "column"])

#: every order of the sweep manifest's scheme and partition axes (12)
SWEEP_ORDERS = tuple(itertools.product(
    itertools.permutations(SCHEMES), itertools.permutations(("row", "column"))
))


DIRECT_GRID = Workload("direct-grid-n2000", "closed", requests=_GRID)
SERVED_SMALL = Workload("served-small", "served", requests=_SERVED)
SWEEP_TABLES = Workload("sweep-tables", "sweep", requests=_SWEEP)

WORKLOADS = {w.name: w for w in (DIRECT_GRID, SERVED_SMALL, SWEEP_TABLES)}


def manifest_dict(requests: tuple[Request, ...]) -> dict[str, Any]:
    """The sweep-tables manifest whose expansion is ``requests``."""
    return {
        "name": "perfbench-sweep-tables",
        "seed": TABLE_SEED,
        "grid": {
            "scheme": list(dict.fromkeys(r.scheme for r in requests)),
            "partition": list(dict.fromkeys(r.partition for r in requests)),
            "n": [400, 1000, 2400],
            "n_procs": [2],
            "sparse_ratio": [0.1],
        },
    }


def cycle(workload: Workload, seed: int, index: int) -> tuple[Request, ...]:
    """Cycle ``index`` of the workload's stream.

    The served stream marks every :data:`OBSERVE_EVERY`-th request of the
    whole stream as observed, so the observed quarter rotates through the
    distinct set from cycle to cycle.  A sweep cycle is one manifest, so
    its order is an order of the scheme and partition axes, in expansion
    order.  Each block of 12 cycles runs every such order once
    (:data:`SWEEP_ORDERS`), in a seeded order, so every run of 12 cycles
    or more runs the same orders equally often, whatever the seed.
    """
    requests = list(workload.requests)
    if workload.kind == "sweep":
        orders = list(SWEEP_ORDERS)
        _rng(workload.name, seed, "block", index // len(orders)).shuffle(orders)
        schemes, partitions = orders[index % len(orders)]
        requests = list(_sweep_requests(list(schemes), list(partitions)))
    else:
        _rng(workload.name, seed, "cycle", index).shuffle(requests)
    if workload.kind == "served":
        start = index * len(requests)
        requests = [
            replace(r, observe=(start + i) % OBSERVE_EVERY == OBSERVE_EVERY - 1)
            for i, r in enumerate(requests)
        ]
    return tuple(requests)


def stream(workload: Workload, seed: int) -> Iterator[tuple[Request, ...]]:
    """The endless stream of cycles."""
    index = 0
    while True:
        yield cycle(workload, seed, index)
        index += 1


def closed_loop(
    cycles: Iterator[tuple[Request, ...]],
    seconds: float,
    run_cycle: Callable[[int, tuple[Request, ...]], None],
    *,
    clock: Callable[[], float] = time.perf_counter,
    min_cycles: int = 1,
) -> int:
    """Run whole cycles until ``seconds`` have passed; return how many.

    A cycle that starts before the deadline always runs to its end, so a
    run never stops partway through the mix.
    """
    start = clock()
    done = 0
    for index, requests in enumerate(cycles):
        if done >= min_cycles and clock() - start >= seconds:
            break
        run_cycle(index, requests)
        done += 1
    return done
