"""The on-disk container: magic, version, JSON header, checked payload.

Layout (all integers big-endian u32)::

    offset  size  field
    0       4     magic  (``QSRA`` for spec artifacts, ``QSRC`` for
                  monitor checkpoints)
    4       4     ARTIFACT_VERSION
    8       4     header length in bytes
    12      n     header: UTF-8 JSON object; carries the source hash,
                  the payload's SHA-256 and human-readable metadata
    12+n    m     payload (codec pickle stream)

The header is deliberately plain JSON so ``repro inspect`` (and shell
tools) can read provenance without touching the payload; the payload
checksum in the header is verified before any byte of pickle is
decoded.  Writes go through a temp file + :func:`os.replace` so a
half-written artifact is never observed at the final path.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import Optional, Tuple

from .errors import ArtifactCorruptError, ArtifactFormatError, ArtifactVersionError

__all__ = [
    "ARTIFACT_VERSION",
    "MAGIC",
    "CHECKPOINT_MAGIC",
    "content_hash",
    "pack",
    "unpack",
    "read_header",
    "sniff",
    "write_atomic",
]

MAGIC = b"QSRA"
CHECKPOINT_MAGIC = b"QSRC"

#: Bump on any incompatible change to the header schema or payload
#: encoding; readers reject other versions outright (the build is
#: cheap to redo, a wrong decode is not).
ARTIFACT_VERSION = 1

_PREFIX = struct.Struct(">4sII")


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pack(header: dict, payload: bytes, *, magic: bytes = MAGIC) -> bytes:
    """Assemble a container; the payload checksum is added to the header."""
    full_header = dict(header)
    full_header["payload_sha256"] = content_hash(payload)
    full_header["payload_len"] = len(payload)
    header_bytes = json.dumps(full_header, sort_keys=True).encode("utf-8")
    return _PREFIX.pack(magic, ARTIFACT_VERSION, len(header_bytes)) + header_bytes + payload


def read_header(data: bytes, *, magic: bytes = MAGIC) -> Tuple[int, dict, int]:
    """Parse and validate the prefix; returns ``(version, header,
    payload_offset)`` without touching the payload.

    Raises :class:`ArtifactFormatError` for non-artifacts and
    :class:`ArtifactVersionError` for version skew.
    """
    kind = "artifact" if magic == MAGIC else "checkpoint"
    if len(data) < _PREFIX.size:
        raise ArtifactFormatError(f"truncated {kind}: {len(data)} bytes")
    found_magic, version, header_len = _PREFIX.unpack_from(data)
    if found_magic != magic:
        raise ArtifactFormatError(
            f"not a spec {kind}: bad magic {found_magic!r} (expected {magic!r})"
        )
    if version != ARTIFACT_VERSION:
        raise ArtifactVersionError(
            f"{kind} version {version} is not supported "
            f"(this build reads version {ARTIFACT_VERSION}); recompile the spec"
        )
    end = _PREFIX.size + header_len
    if len(data) < end:
        raise ArtifactFormatError(f"truncated {kind} header")
    try:
        header = json.loads(data[_PREFIX.size:end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: a deeply nested header (``[[[[...``) exhausts
        # the JSON decoder's stack -- hostile bytes, like any other.
        raise ArtifactFormatError(f"unreadable {kind} header: {exc}") from exc
    if not isinstance(header, dict):
        raise ArtifactFormatError(f"{kind} header is not an object")
    return version, header, end


def unpack(data: bytes, *, magic: bytes = MAGIC) -> Tuple[dict, bytes]:
    """Validate a container fully and return ``(header, payload)``.

    On top of :func:`read_header` this verifies the payload checksum,
    raising :class:`ArtifactCorruptError` on mismatch.
    """
    _version, header, offset = read_header(data, magic=magic)
    payload = data[offset:]
    expected = header.get("payload_sha256")
    if not isinstance(expected, str):
        raise ArtifactFormatError("header lacks a payload checksum")
    if content_hash(payload) != expected:
        raise ArtifactCorruptError(
            "payload checksum mismatch: artifact bytes are damaged"
        )
    return header, payload


def sniff(data: bytes, *, magic: bytes = MAGIC) -> bool:
    """Do these bytes look like a container (vs. e.g. spec source)?"""
    return data[:4] == magic


def write_atomic(path: str, data: bytes, *, suffix: Optional[str] = None) -> None:
    """Write then rename, so readers only ever see complete files."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    if suffix is not None:
        tmp += suffix
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
