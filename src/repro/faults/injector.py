"""The deterministic fault engine.

A :class:`FaultInjector` owns a seeded ``numpy`` generator and turns a
:class:`~repro.faults.spec.FaultSpec` into concrete decisions, one draw
per question in a fixed order — so a given ``(spec, seed)`` pair replays
the *exact* same fault sequence on the exact same run, which the
determinism tests pin (same seed ⇒ identical trace and identical charged
costs).

The injector only decides; it never touches payloads or the trace.
:class:`~repro.faults.link.ReliableLink`, the machine's wire under a
fault plan, asks it the questions (:meth:`attempt_outcome`,
:meth:`should_duplicate`, :meth:`reorder_insert`,
:meth:`slowdown_factor`, :meth:`rank_failed`) in a fixed order and does
the charging, corruption, delivery, retrying and detection.

Per-processor state (slowdown factors, transient-crash budgets) is
sampled *up front* in :meth:`bind`, in rank order, so those draws do not
depend on the traffic pattern.
"""

from __future__ import annotations

import enum

import numpy as np

from .spec import FaultSpec
from .stats import FaultStats

__all__ = ["Attempt", "FaultInjector"]


class Attempt(enum.Enum):
    """Outcome of one send attempt, as decided by the injector."""

    DELIVER = "deliver"    # frame arrives intact
    DROP = "drop"          # frame lost on the wire
    CORRUPT = "corrupt"    # frame arrives bit-flipped (checksum catches it)
    CRASH = "crash"        # destination transiently down; counts as a loss
    FAILSTOP = "fail-stop" # destination permanently dead; never acks again


class FaultInjector:
    """Seedable, deterministic source of fault decisions.

    Parameters
    ----------
    spec:
        The fault plan.
    seed:
        Seed for the injector's private generator; the whole fault
        sequence is a pure function of ``(spec, seed, machine run)``.
    """

    def __init__(self, spec: FaultSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = int(seed)
        self.stats = FaultStats()
        self.rng = np.random.default_rng(self.seed)
        self._next_seq = 0
        self._slow_factor: dict[int, float] = {}
        self._crash_budget: dict[int, int] = {}
        #: fail-stop state: doomed rank -> frames it accepts before dying
        self._fail_after: dict[int, int] = {}
        #: frames accepted so far by each doomed rank
        self._accepted: dict[int, int] = {}
        self._bound_procs: int | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, n_procs: int) -> None:
        """Sample per-processor state for a machine of ``n_procs`` ranks.

        Called by the machine's link at attach time.  Draws happen in rank order
        (slowdowns first, then crash budgets) so per-processor fates are
        independent of later traffic.
        """
        self._bound_procs = n_procs
        self._slow_factor = {}
        self._crash_budget = {}
        sd, cr = self.spec.slowdown, self.spec.crash
        for rank in range(n_procs):
            slowed = sd.probability > 0 and self.rng.random() < sd.probability
            self._slow_factor[rank] = sd.factor if slowed else 1.0
        for rank in range(n_procs):
            crashed = cr.probability > 0 and self.rng.random() < cr.probability
            self._crash_budget[rank] = (
                int(self.rng.integers(1, cr.max_failed_sends + 1)) if crashed else 0
            )
        # fail-stop fates, in rank order after the transient draws.  The
        # explicit kill list is honoured first (no draw needed), then each
        # remaining rank rolls against the probability.  At least one rank
        # is always spared: a machine that loses every processor has no
        # surviving membership to recover onto (and a p=1 machine cannot
        # lose its only rank at all).
        fs = self.spec.fail_stop
        self._fail_after = {}
        self._accepted = {}
        doomed = {r for r in fs.dead_ranks if 0 <= r < n_procs}
        if fs.probability > 0:
            for rank in range(n_procs):
                if rank not in doomed and self.rng.random() < fs.probability:
                    doomed.add(rank)
        while doomed and len(doomed) >= n_procs:
            doomed.discard(max(doomed))  # deterministically spare the top rank
        for rank in sorted(doomed):
            self._fail_after[rank] = fs.after_accepts
            self._accepted[rank] = 0

    def reset(self) -> None:
        """Restore the injector to its just-constructed state (same seed)."""
        self.stats.clear()
        self.rng = np.random.default_rng(self.seed)
        self._next_seq = 0
        if self._bound_procs is not None:
            self.bind(self._bound_procs)

    # ------------------------------------------------------------------
    # per-message decisions (called by the link, in traffic order)
    # ------------------------------------------------------------------
    def next_seq(self) -> int:
        """A fresh message sequence number (duplicate detection)."""
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def attempt_outcome(self, dst: int, *, corruptible: bool) -> Attempt:
        """Fate of one send attempt towards ``dst``.

        A transiently-crashed destination rejects the attempt outright
        (consuming one unit of its crash budget); otherwise one uniform
        draw picks drop / corrupt / deliver.  ``corruptible`` is False for
        empty wire buffers (no bits to flip) — the corruption band then
        collapses into a successful delivery.
        """
        if self._crash_budget.get(dst, 0) > 0:
            self._crash_budget[dst] -= 1
            return Attempt.CRASH
        u = self.rng.random()
        if u < self.spec.drop:
            return Attempt.DROP
        if u < self.spec.drop + self.spec.corrupt and corruptible:
            return Attempt.CORRUPT
        return Attempt.DELIVER

    def should_duplicate(self) -> bool:
        """Whether the network duplicates a just-delivered frame."""
        return self.spec.duplicate > 0 and self.rng.random() < self.spec.duplicate

    def reorder_insert(self, mailbox_len: int) -> int | None:
        """Out-of-order arrival position, or ``None`` for in-order append.

        With probability ``reorder`` the frame overtakes traffic already
        queued at the destination: it is inserted at a uniformly-drawn
        position *before* the end of the mailbox.  An empty mailbox has
        nothing to overtake, so arrival stays in order (no draw is made —
        the decision would be unobservable).
        """
        if self.spec.reorder <= 0 or mailbox_len == 0:
            return None
        if self.rng.random() < self.spec.reorder:
            return int(self.rng.integers(0, mailbox_len))
        return None

    def slowdown_factor(self, rank: int) -> float:
        """This rank's constant op-time multiplier (1.0 = nominal)."""
        return self._slow_factor.get(rank, 1.0)

    # ------------------------------------------------------------------
    # fail-stop (permanent death) state
    # ------------------------------------------------------------------
    @property
    def doomed_ranks(self) -> tuple[int, ...]:
        """Ranks fated to die this run (whether or not they have yet)."""
        return tuple(sorted(self._fail_after))

    def rank_failed(self, rank: int) -> bool:
        """True once ``rank`` is permanently dead (fail-stop fired).

        A doomed rank dies the moment it has accepted its
        ``after_accepts``-th frame (0 = dead from the start).  Death is
        a *physical* fact; whether the host has paid to detect it is the
        :class:`~repro.machine.membership.Membership` layer's business.
        """
        fa = self._fail_after.get(rank)
        return fa is not None and self._accepted.get(rank, 0) >= fa

    def record_accept(self, rank: int) -> None:
        """Count one successfully accepted frame at a doomed rank."""
        if rank in self._fail_after:
            self._accepted[rank] = self._accepted.get(rank, 0) + 1

    def kill_rank(self, rank: int) -> None:
        """Force ``rank`` permanently dead right now (test / scenario hook).

        Used to script post-distribution failures deterministically; the
        rank behaves exactly like a doomed rank whose budget just ran out.
        ``reset()`` forgets scripted kills (they are not part of the
        seeded plan).
        """
        self._fail_after[rank] = 0
        self._accepted[rank] = 0

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.seed}, spec={self.spec!r}, "
            f"stats={self.stats.summary()})"
        )
