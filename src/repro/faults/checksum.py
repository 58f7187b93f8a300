"""Wire checksums and the corruption model.

Every wire buffer the schemes transmit — a CFS :class:`~repro.machine.
packing.PackedBuffer` (packed ``RO/CO/VL``), an ED :class:`~repro.core.
encoded_buffer.EncodedBuffer` (the special buffer ``B``), or an SFC dense
block (plain ``ndarray``) — reduces to one contiguous ``float64`` array.
The checksum is CRC-32 over those bytes: cheap, deterministic, and any
single bit flip changes it, so the receiver (or the simulated NIC) can
detect the corruption faults :class:`~repro.faults.injector.FaultInjector`
introduces and trigger a retransmission.

Corruption itself is modelled as one deterministic bit flip in one element
of a *copy* of the buffer — the sender's original is never touched, so a
retransmission always carries the intact data (eventual delivery keeps the
final machine state equal to the fault-free run).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable
from zlib import crc32

import numpy as np

__all__ = [
    "CorruptFrameError",
    "wire_checksum",
    "payload_wire_data",
    "payload_checksum",
    "corrupt_payload",
    "verify_frame",
]


class CorruptFrameError(RuntimeError):
    """A received frame failed checksum verification.

    Raised by :func:`verify_frame` when a message consumed from a mailbox
    does not match the checksum computed at send time.  The
    reliable-delivery protocol NACKs and retransmits corrupt frames
    before they reach a mailbox, so seeing this means something tampered
    with a payload *after* delivery — the share-nothing discipline was
    violated.
    """


def wire_checksum(data: np.ndarray) -> int:
    """CRC-32 over the raw bytes of a (flattened, contiguous) array."""
    arr = np.ascontiguousarray(data)
    return crc32(arr.view(np.uint8) if arr.ndim == 1 else arr.tobytes())


def payload_wire_data(payload: Any) -> np.ndarray | None:
    """The flat wire array behind a payload, or ``None`` if there is none.

    Understands the three wire formats: objects exposing a flat ``data``
    array (``PackedBuffer``, ``EncodedBuffer``) and raw numpy arrays (SFC
    dense blocks).  Anything else (e.g. an opaque Python object used by a
    unit test) has no defined wire image.
    """
    data = getattr(payload, "data", None)
    if isinstance(data, np.ndarray):
        return data
    if isinstance(payload, np.ndarray):
        return payload
    return None


def payload_checksum(payload: Any) -> int | None:
    """Checksum of a payload's wire image (``None`` for opaque payloads)."""
    data = payload_wire_data(payload)
    if data is None:
        return None
    return wire_checksum(data)


def verify_frame(
    frame: Any, phase: Any, charge: Callable[[int, Any, str], Any]
) -> None:
    """The receiver's CRC check of a popped frame (a ``Message``).

    Only the reliable-delivery path stamps a checksum, so other frames
    pass unchecked.  The scan is one op per element, charged through
    ``charge(n_ops, phase, label)`` when ``phase`` is given; a mismatch
    raises :class:`CorruptFrameError` naming the physical destination.
    ``Machine.receive`` and the rank tasks' ``open_frame`` both call it.
    """
    if frame.checksum is None:
        return
    if phase is not None:
        charge(frame.n_elements, phase, "checksum-verify")
    if payload_checksum(frame.payload) != frame.checksum:
        raise CorruptFrameError(
            f"rank {frame.dst}: frame seq={frame.seq} tag={frame.tag!r} failed "
            "checksum verification after delivery"
        )


def corrupt_payload(payload: Any, rng: np.random.Generator) -> Any | None:
    """A copy of ``payload`` with one bit flipped in its wire image.

    Returns ``None`` when the payload has no wire image or the image is
    empty (nothing to corrupt — the injector treats that attempt as
    delivered intact).  The flipped bit position is drawn from ``rng``, so
    corruption is deterministic under a fixed fault seed.
    """
    data = payload_wire_data(payload)
    if data is None or data.size == 0:
        return None
    flat = np.ascontiguousarray(data).reshape(-1).copy()
    byte_view = flat.view(np.uint8)
    pos = int(rng.integers(0, byte_view.size))
    bit = int(rng.integers(0, 8))
    byte_view[pos] ^= np.uint8(1 << bit)
    corrupted = flat.reshape(data.shape)
    if isinstance(payload, np.ndarray):
        return corrupted
    # frozen dataclass wire buffers (PackedBuffer / EncodedBuffer)
    return replace(payload, data=corrupted)
