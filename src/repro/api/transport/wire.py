"""Length-prefixed JSON frames for the TCP transport.

Every message on a coordinator<->worker connection is one *frame*: a
4-byte big-endian length followed by that many bytes of UTF-8 JSON.
JSON keeps the protocol inspectable (``tcpdump``-able, versionable) and
host-neutral; the two payload kinds that are not JSON-able -- a
:class:`~repro.checker.result.TestResult` coming back, or the exception
inside a :class:`~repro.api.transport.base.TaskFailure` -- ride inside
a frame as base64-encoded pickles via :func:`pack`/:func:`unpack`
(exactly the bytes that already cross the fork-mode result queue, so
remote results are bit-identical to pooled ones).

Frame vocabulary (``type`` field):

====================  =======  ==========================================
frame                 sender   meaning
====================  =======  ==========================================
``hello``             worker   ``slots``/``host``/``pid``/``version``
``welcome``           coord    assigned ``worker_id``
``next``              worker   a slot is free; send work
``task``              coord    ``id`` (wire id), ``epoch``, ``body``
``wait``              coord    nothing pending; re-``next`` in ``for_s``
``result``            worker   ``id``/``epoch``/``elapsed``/``payload``
``failure``           worker   task raised: ``error`` repr + ``payload``
``ping``              worker   liveness heartbeat
``shutdown``          coord    batch over; worker exits
====================  =======  ==========================================
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import struct

__all__ = [
    "FrameError",
    "PROTOCOL_VERSION",
    "pack",
    "recv_frame",
    "send_frame",
    "unpack",
]

#: Bumped on incompatible frame changes; ``hello`` carries it so a
#: mismatched worker is rejected with a clear error, not a weird hang.
PROTOCOL_VERSION = 1

_HEADER = struct.Struct(">I")

#: Cap on a single frame (64 MiB).  A counterexample's event stream is
#: big; a corrupted length prefix is bigger.  This catches the latter.
MAX_FRAME = 64 * 1024 * 1024


class FrameError(ConnectionError):
    """The peer closed mid-frame or sent a malformed frame."""


def send_frame(sock: socket.socket, message: dict) -> None:
    data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    sock.sendall(_HEADER.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise FrameError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict:
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds {MAX_FRAME} cap")
    try:
        message = json.loads(_recv_exact(sock, length).decode("utf-8"))
    except (ValueError, RecursionError) as err:
        # RecursionError: a deeply nested frame (``[[[[...``) exhausts
        # the JSON decoder's stack -- hostile bytes, like any other.
        raise FrameError(f"malformed frame: {err}") from err
    if not isinstance(message, dict) or "type" not in message:
        raise FrameError(f"frame is not a typed object: {message!r}")
    return message


def pack(obj: object) -> str:
    """Encode a Python object (TestResult, exception) for a JSON frame."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def unpack(data: str) -> object:
    return pickle.loads(base64.b64decode(data.encode("ascii")))
