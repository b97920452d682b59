"""Binary container framing shared by the .cir, .ddm and .pdp files.

A container is an 8-byte magic, a little-endian u32 header length, a UTF-8
JSON header (sorted keys) and a payload of little-endian arrays whose sizes
follow from the header.  Reading checks the payload against those sizes:
a short payload or trailing bytes raise ValueError.
"""

from __future__ import annotations

import datetime
import json
import struct
from pathlib import Path

import numpy as np


def now() -> str:
    """UTC timestamp for the header's "created" field."""
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def write_container(path, magic: bytes, header: dict, chunks) -> None:
    """Write magic, header and every chunk (bytes or array) of the payload."""
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for chunk in chunks:
            fh.write(chunk if isinstance(chunk, bytes) else chunk.tobytes())


class Payload:
    """Cursor over a container payload; every read is checked against its end."""

    def __init__(self, path, raw: bytes, offset: int):
        self.path, self.raw, self.offset = path, raw, offset

    def skip(self, nbytes: int) -> int:
        """Step over nbytes; the offset where they start."""
        start = self.offset
        if nbytes > len(self.raw) - start:
            raise ValueError(f"{self.path}: payload truncated at byte {len(self.raw)}, "
                             f"{nbytes} more bytes declared at byte {start}")
        self.offset += nbytes
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.raw, self.skip(struct.calcsize(fmt)))

    def take(self, dtype, count) -> np.ndarray:
        """count items of dtype, as a read-only view of the file bytes."""
        if not isinstance(count, (int, np.integer)) or count < 0:
            raise ValueError(f"{self.path}: bad array length {count!r}")
        dtype = np.dtype(dtype)
        return np.frombuffer(self.raw, dtype, count, self.skip(dtype.itemsize * count))

    def end(self) -> None:
        extra = len(self.raw) - self.offset
        if extra:
            raise ValueError(f"{self.path}: {extra} bytes after the declared payload")


def read_container(path, magic: bytes, what: str) -> tuple[dict, Payload]:
    """Header and payload cursor of a container; ValueError on a foreign
    file, or on a header or header metadata that is not a JSON object."""
    raw = Path(path).read_bytes()
    if raw[:len(magic)] != magic:
        raise ValueError(f"{path}: not a rftwin {what} file")
    payload = Payload(path, raw, len(magic))
    (hlen,) = payload.unpack("<I")
    header = json.loads(payload.take(np.uint8, hlen).tobytes().decode())
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    if not isinstance(header.get("metadata", {}), dict):
        raise ValueError(f"{path}: header metadata is not a JSON object")
    return header, payload
