"""Heartbeat/epoch membership: which ranks the *host believes* are alive.

Fail-stop failures (``FailStopSpec``) kill a processor permanently.  The
physical death is the injector's business; this layer models the host's
*knowledge* of it, which is never free: the host only declares a rank dead
after ``detect_after`` consecutive unacknowledged send (or heartbeat)
attempts, each charged the full message cost plus its backoff timeout
through the ordinary cost model.

Every declaration bumps the membership **epoch** — the recovery layer
(src/repro/recovery/) stamps its work with the epoch so stale state from
an earlier membership view is never mixed into a newer one.

:class:`DeadRankError` is how death surfaces to running scheme/app code:

* raised by the reliable-delivery protocol
  (:class:`~repro.faults.link.ReliableLink`) once detection completes
  (``detected=True`` — the timeouts were just charged);
* raised by the link's dead-rank guard (``Machine.receive`` /
  ``charge_proc_ops`` / ``processor`` on a dead rank) with
  ``detected=False`` — the node physically cannot run code, but the host
  has not yet paid to learn it died; callers must route through
  :meth:`Machine.confirm_failure` (the link's heartbeat probes) before
  acting on the knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DeadRankError", "DetectionRecord", "Membership"]


class DeadRankError(RuntimeError):
    """A permanently failed rank was addressed (send, receive or compute).

    Attributes
    ----------
    rank:
        The dead processor's (physical) rank.
    detected:
        ``True`` when the host has already paid the missed-ack timeouts
        and declared the rank dead; ``False`` for simulator-guard raises
        (the caller still owes a :meth:`Machine.confirm_failure`).
    missed_acks:
        Unacknowledged attempts charged before this raise (0 when
        ``detected`` is ``False``).
    time_charged:
        Total simulated ms charged for those attempts and their backoff
        timeouts (already recorded in the trace).
    """

    def __init__(
        self,
        rank: int,
        *,
        detected: bool = False,
        missed_acks: int = 0,
        time_charged: float = 0.0,
    ) -> None:
        verb = "declared dead" if detected else "is dead (undetected)"
        super().__init__(
            f"rank {rank} {verb} after {missed_acks} missed ack(s); "
            f"{time_charged:.4f} ms of detection timeouts charged"
        )
        self.rank = rank
        self.detected = detected
        self.missed_acks = missed_acks
        self.time_charged = time_charged


@dataclass(frozen=True)
class DetectionRecord:
    """One rank-death declaration, with what detection cost the host."""

    rank: int
    epoch: int          # membership epoch *after* this declaration
    phase: str          # trace phase the detection was charged to
    missed_acks: int    # unacked attempts paid before declaring
    time_ms: float      # message + backoff time charged for detection


@dataclass
class Membership:
    """The host's view of which ranks are alive, versioned by epoch."""

    n_procs: int
    alive: set[int] = field(default_factory=set)
    epoch: int = 0
    detections: list[DetectionRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.alive:
            self.alive = set(range(self.n_procs))

    def is_alive(self, rank: int) -> bool:
        return rank in self.alive

    @property
    def survivors(self) -> list[int]:
        """Alive ranks in ascending order (the degraded machine's roster)."""
        return sorted(self.alive)

    @property
    def dead(self) -> list[int]:
        return sorted(set(range(self.n_procs)) - self.alive)

    def declare_dead(
        self, rank: int, *, phase: str, missed_acks: int, time_ms: float
    ) -> DetectionRecord:
        """Remove ``rank`` from the roster and bump the epoch.

        Idempotent: re-declaring an already-dead rank returns the original
        record without a new epoch.
        """
        for rec in self.detections:
            if rec.rank == rank:
                return rec
        if rank not in self.alive:  # pragma: no cover - defensive
            raise ValueError(f"rank {rank} is not a member")
        if len(self.alive) == 1:
            raise ValueError(
                f"cannot declare rank {rank} dead: it is the last survivor"
            )
        self.alive.discard(rank)
        self.epoch += 1
        rec = DetectionRecord(
            rank=rank,
            epoch=self.epoch,
            phase=phase,
            missed_acks=missed_acks,
            time_ms=time_ms,
        )
        self.detections.append(rec)
        return rec

    def reset(self) -> None:
        """Restore full membership (used by :meth:`Machine.reset`)."""
        self.alive = set(range(self.n_procs))
        self.epoch = 0
        self.detections.clear()

    @property
    def detection_time_ms(self) -> float:
        return sum(r.time_ms for r in self.detections)

    @property
    def missed_acks_total(self) -> int:
        return sum(r.missed_acks for r in self.detections)

    def __repr__(self) -> str:
        return (
            f"Membership(p={self.n_procs}, alive={self.survivors}, "
            f"epoch={self.epoch})"
        )
