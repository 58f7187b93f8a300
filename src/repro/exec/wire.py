"""Wire transport between the coordinator and rank worker processes.

Each rank worker holds one end of a ``socket.socketpair()``.  A message
is one frame: a fixed header (pickle length, buffer count), the lengths
of the out-of-band buffers, the pickle-5 stream, then the buffers
themselves.  Array payloads ride as :class:`pickle.PickleBuffer`
out-of-band buffers: the sender writes them straight from the arrays'
memory and the receiver reads them with ``recv_into`` into fresh
buffers the unpickled arrays then own.

Byte-fidelity contract: serialisation must never change payload bytes.
Out-of-band buffers are verbatim copies of the arrays' memory, so a
frame arrives with the exact bytes it was sent with — the property the
executor differential suite pins.

Deadlines: every call takes an optional absolute ``time.monotonic()``
deadline.  A send or read that cannot finish by then raises
:class:`TimeoutError`, possibly mid-frame — the stream is then unusable
and the caller must kill the worker (the supervisor counts it a hang).
``None`` blocks for as long as the peer takes.
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
from typing import Any

__all__ = ["recv_msg", "send_msg"]

#: frame header: pickle-stream length, out-of-band buffer count
_HEAD = struct.Struct("!QI")


def _arm(sock: socket.socket, deadline: float | None) -> None:
    """Bound the next socket call by ``deadline`` (``None``: blocking)."""
    if deadline is None:
        if sock.gettimeout() is not None:
            sock.settimeout(None)
        return
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("wire deadline passed")
    sock.settimeout(remaining)


def send_msg(sock: socket.socket, obj: Any, deadline: float | None = None) -> None:
    """Serialise ``obj`` onto ``sock`` as one frame."""
    raws: list[memoryview] = []
    data = pickle.dumps(
        obj, protocol=5, buffer_callback=lambda buf: raws.append(buf.raw())
    )
    head = _HEAD.pack(len(data), len(raws))
    lengths = struct.pack(f"!{len(raws)}Q", *(raw.nbytes for raw in raws))
    for chunk in (head + lengths + data, *raws):
        _arm(sock, deadline)
        sock.sendall(chunk)


def _recv_exact(sock: socket.socket, n: int, deadline: float | None) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    while view:
        _arm(sock, deadline)
        got = sock.recv_into(view)
        if not got:
            raise EOFError("peer closed the wire")
        view = view[got:]
    return buf


def recv_msg(sock: socket.socket, deadline: float | None = None) -> Any:
    """Receive one :func:`send_msg` frame from ``sock`` and deserialise it.

    Raises ``EOFError``/``OSError`` when the peer died — callers translate
    that into a dead-worker diagnosis.
    """
    n_data, n_bufs = _HEAD.unpack(_recv_exact(sock, _HEAD.size, deadline))
    lengths = struct.unpack(f"!{n_bufs}Q", _recv_exact(sock, 8 * n_bufs, deadline))
    data = _recv_exact(sock, n_data, deadline)
    return pickle.loads(data, buffers=[_recv_exact(sock, n, deadline) for n in lengths])
