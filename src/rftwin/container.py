"""Binary container framing shared by the .cir, .ddm and .pdp files.

A container is an 8-byte magic, a little-endian u32 header length, a UTF-8
JSON header (sorted keys) and a payload of little-endian arrays whose sizes
follow from the header.  Reading checks the payload against those sizes:
a short payload or trailing bytes raise ValueError.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import os
import struct

import numpy as np


def now() -> str:
    """UTC timestamp for the header's "created" field."""
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


@contextlib.contextmanager
def open_container(path, magic: bytes, header: dict):
    """Create the file at path and write magic and header; yields the open
    binary file, for the caller to write the payload to, and closes it.  An
    array is written as its memory holds it, so it must be little-endian."""
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        yield fh


class Payload:
    """Cursor over a container payload; every read is checked against its end."""

    def __init__(self, path, raw: np.ndarray, offset: int):
        self.path, self.raw, self.offset = path, raw, offset

    def skip(self, nbytes: int) -> int:
        """Step over nbytes; the offset where they start."""
        start = self.offset
        if nbytes > len(self.raw) - start:
            raise ValueError(f"{self.path}: payload truncated at byte {len(self.raw)}, "
                             f"{nbytes} more bytes declared at byte {start}")
        self.offset += nbytes
        return start

    def take(self, dtype, count) -> np.ndarray:
        """count items of dtype, as a writable view of the file bytes: the
        array shares and keeps alive the buffer read_container filled."""
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
    file, or on a header or header metadata that is not a JSON object.  The
    file is read into one uint8 array, placed so that the payload starts on
    an 8-byte boundary: the arrays taken from it are aligned and writable
    without a copy."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(min(size, len(magic) + 4))
        payload_at = len(head) + int.from_bytes(head[len(magic):], "little")
        buffer = np.empty(size + 7, np.uint8)
        shift = -(buffer.ctypes.data + payload_at) % 8
        raw = buffer[shift:shift + size]
        raw[:len(head)] = np.frombuffer(head, np.uint8)
        raw = raw[:len(head) + fh.readinto(raw[len(head):])]
    if head[:len(magic)] != magic:
        raise ValueError(f"{path}: not a rftwin {what} file")
    payload = Payload(path, raw, len(magic))
    hlen = int(payload.take("<u4", 1)[0])
    header = json.loads(payload.take(np.uint8, hlen).tobytes().decode())
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    if not isinstance(header.get("metadata", {}), dict):
        raise ValueError(f"{path}: header metadata is not a JSON object")
    return header, payload
