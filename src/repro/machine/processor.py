"""A simulated processor: private memory namespace plus a message mailbox.

Processors in a distributed-memory multicomputer share nothing; all state a
processor holds lives in its :attr:`memory` dict and everything it learns
arrives through :meth:`deliver`.  Scheme code running "on" a processor is
ordinary Python that only touches that processor's memory — the machine
enforces the discipline, the cost model charges the time.

Reliable-delivery support (used only by
:class:`~repro.faults.link.ReliableLink`, the machine's wire under a fault
plan): messages carry a sequence number and a wire checksum; :meth:`deliver`
discards duplicate sequence numbers (the receiver side of at-least-once
delivery) and can insert a frame out of order to model network reordering.
Fault-free messages keep ``seq = -1`` and skip all of that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Message", "Processor"]


@dataclass(frozen=True)
class Message:
    """An in-flight message: source, tag and an opaque payload.

    ``seq`` and ``checksum`` belong to the reliable-delivery protocol:
    ``seq`` is a machine-wide sequence number used for duplicate
    suppression (``-1`` = unsequenced, fault-free traffic) and
    ``checksum`` is the CRC-32 of the payload's wire image computed at
    send time (``None`` when the payload has no wire image or faults are
    off).  A popped message is also the frame a rank task opens.
    """

    src: int
    dst: int
    tag: str
    payload: Any
    n_elements: int
    seq: int = -1
    checksum: int | None = None


class Processor:
    """One node of the simulated machine."""

    def __init__(self, rank: int) -> None:
        if rank < 0:
            raise ValueError(f"processor rank must be non-negative, got {rank}")
        self.rank = rank
        #: the processor's private memory: name -> object
        self.memory: dict[str, Any] = {}
        #: received, not-yet-consumed messages in arrival order
        self.mailbox: list[Message] = []
        #: sequence numbers already accepted (duplicate suppression)
        self.seen_seqs: set[int] = set()
        #: store version per name (see :meth:`store`); executor sessions
        #: use these to invalidate worker-side cached copies
        self.versions: dict[str, int] = {}
        #: monotonic store counter — never rewound, even by :meth:`reset`,
        #: so a version can never repeat across reset or rank death
        self._store_seq = 0

    def deliver(self, message: Message, *, insert_at: int | None = None) -> bool:
        """Accept ``message`` into the mailbox.

        Returns ``True`` if the message was enqueued, ``False`` if it was
        a duplicate (its sequence number was already accepted) and was
        discarded.  ``insert_at`` places the frame out of order — the
        reordering fault; ``None`` appends (in-order arrival).
        """
        if message.dst != self.rank:
            raise ValueError(
                f"message for rank {message.dst} delivered to rank {self.rank}"
            )
        if message.seq >= 0:
            if message.seq in self.seen_seqs:
                return False  # duplicate frame: drop silently
            self.seen_seqs.add(message.seq)
        if insert_at is None:
            self.mailbox.append(message)
        else:
            self.mailbox.insert(insert_at, message)
        return True

    def receive(self, tag: str | None = None) -> Message:
        """Pop the oldest message (optionally the oldest with ``tag``)."""
        for i, msg in enumerate(self.mailbox):
            if tag is None or msg.tag == tag:
                return self.mailbox.pop(i)
        raise LookupError(
            f"rank {self.rank}: no message" + (f" with tag {tag!r}" if tag else "")
        )

    def store(self, name: str, value: Any) -> None:
        self.memory[name] = value
        self._store_seq += 1
        self.versions[name] = self._store_seq

    def load(self, name: str) -> Any:
        try:
            return self.memory[name]
        except KeyError:
            raise KeyError(f"rank {self.rank} has no object named {name!r}") from None

    def reset(self) -> None:
        self.memory.clear()
        self.mailbox.clear()
        self.seen_seqs.clear()
        self.versions.clear()  # _store_seq keeps counting: no version reuse

    def __repr__(self) -> str:
        return (
            f"Processor(rank={self.rank}, memory={list(self.memory)}, "
            f"mailbox={len(self.mailbox)} msgs)"
        )
