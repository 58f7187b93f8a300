"""The metric rules every workload shares.

These are pure functions over recorded samples, so the tests in
``perfbench/tests`` pin them without running the program:

* the median unit time is taken over each unit's *request*: every unit
  counts with its request's median time (:func:`request_median`);
* the tail is the highest percentile of :data:`TAIL_LADDER` that still
  has at least :data:`MIN_BEYOND` samples beyond it, taken per slice of
  whole cycles (:func:`cycle_slices`) and reported as the median over
  the slices (:func:`median_tail`);
* a served reply counts only when it is a correct result — a refused,
  failed, missing or wrong reply is not a completed unit;
* every ratio carries its base (:class:`Ratio`).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

__all__ = [
    "MIN_BEYOND",
    "Ratio",
    "Reply",
    "TAIL_LADDER",
    "TAIL_SLICE_UNITS",
    "cycle_slices",
    "latencies_ms",
    "median",
    "median_tail",
    "nearest_rank",
    "request_median",
    "spread",
    "tail",
]

#: candidate tail percentiles, lowest first
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: a tail percentile needs at least this many samples beyond it
MIN_BEYOND = 10

#: a tail slice holds the fewest whole cycles with at least this many units
TAIL_SLICE_UNITS = 100


def nearest_rank(sorted_values: Sequence[float], q: float) -> tuple[float, int]:
    """``(value, beyond)``: the nearest-rank ``q``-th percentile of an
    ascending sequence and how many samples lie beyond its rank."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1]), len(sorted_values) - rank


def tail(values: Iterable[float]) -> tuple[float, float, int]:
    """``(percentile, value, beyond)`` for the highest ladder percentile
    with at least :data:`MIN_BEYOND` samples beyond it.

    With too few samples for even the median to qualify, the median is
    returned with the (short) count beyond it, so the caller can report
    the sample count honestly instead of inventing a tail.
    """
    ordered = sorted(values)
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        _, beyond = nearest_rank(ordered, q)
        if beyond >= MIN_BEYOND:
            best = q
    value, beyond = nearest_rank(ordered, best)
    return best, value, beyond


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def request_median(samples: Iterable[tuple[Hashable, float]]) -> float:
    """The median unit time of a mix of requests: each ``(request, time)``
    sample counts with its request's median time.

    A cycle runs a few distinct requests of very different cost, so the
    pooled median of their times sits where two requests' times meet.
    The nine ``direct-grid-n2000`` runs took 84-150 ms, and the middle
    of the pool fell between the 101-ms and the 123-ms requests: from
    run to run it read anywhere from 92 to 110 ms (spread 0.15) while
    the run's throughput moved half as much.  Each request's own median
    is steady, so the median over requests only moves when they do.
    """
    by_request: dict[Hashable, list[float]] = {}
    for request, value in samples:
        by_request.setdefault(request, []).append(value)
    if not by_request:
        raise ValueError("median of no samples")
    return median(
        m for times in by_request.values() for m in [median(times)] * len(times)
    )


def cycle_slices(
    cycles: Sequence[Sequence[float]], min_units: int = TAIL_SLICE_UNITS
) -> list[list[float]]:
    """Consecutive slices of whole cycles' unit times, each the fewest
    whole cycles with at least ``min_units`` units; the cycles left over
    join the last slice.

    Every cycle is the same mix, so each slice's tail lands on the same
    rank of the same mix.  Pooled over however many cycles a run
    managed, the p95 of ``sweep-tables`` sat on the edge of its slowest
    cells (one in 18 generates the n=2400 matrix) and swung 0.27 over
    four runs; over slices it moved 0.03.
    """
    if not cycles:
        raise ValueError("no cycles to slice")
    per = -(-min_units // max(len(cycles[0]), 1))
    count = max(len(cycles) // per, 1)
    out = [[t for c in cycles[i * per:(i + 1) * per] for t in c] for i in range(count)]
    out[-1] += [t for c in cycles[count * per:] for t in c]
    return out


def median_tail(slices: Sequence[Sequence[float]]) -> tuple[float, float, int]:
    """``(percentile, tail, beyond)``: the median over ``slices`` of each
    slice's :func:`tail`.

    One burst of stalls then moves the tail of one slice, not the
    reported one.  ``percentile`` and ``beyond`` are the tail rule's
    choice for the smallest slice.
    """
    tails = [tail(s) for s in slices]
    q, _, beyond = min(tails, key=lambda t: (t[0], t[2]))
    return q, median(t[1] for t in tails), beyond


@dataclass(frozen=True)
class Ratio:
    """A ratio that always travels with its base: ``num / base`` of
    ``base`` counted ``of`` (e.g. 1234 ``matrix_for calls``)."""

    num: float
    base: float
    of: str

    @property
    def value(self) -> float:
        return self.num / self.base if self.base else 0.0

    def describe(self) -> dict[str, object]:
        return {"value": self.value, "num": self.num, "base": self.base, "of": self.of}


@dataclass(frozen=True)
class Reply:
    """One served request as the client saw it.

    ``status`` is ``"ok"`` (a result line), ``"error"`` (a 400/500 line),
    ``"reject"`` (a 429 line) or ``"missing"`` (no reply before the
    client gave up).  ``correct`` is whether an ``ok`` payload matched
    its reference; times are ``time.perf_counter`` seconds.
    """

    sent: float
    received: float | None
    status: str
    correct: bool

    @property
    def good(self) -> bool:
        return self.status == "ok" and self.correct and self.received is not None


def latencies_ms(replies: Iterable[Reply]) -> list[float]:
    """Send-to-reply latency of every answered request."""
    return [(r.received - r.sent) * 1000.0 for r in replies if r.received is not None]


def spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` as the acceptance rule
    computes it, with :func:`statistics.quantiles` ``n=4``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else math.inf
