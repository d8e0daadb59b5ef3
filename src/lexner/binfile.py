"""Byte-level rules of the binary files: checkpoints, LS tables and the
subword section of vector files. A file or section opens with a magic and a
version byte; little-endian fields, u16-length-prefixed UTF-8 strings and
float32 blocks follow. A `Reader` checks that bytes exist before reading
them, so a corrupt length or shape is a truncation at the offset where the
bytes ran out, never a huge allocation; a bad value is an error at its own.
"""
from __future__ import annotations

import struct
from typing import Iterable

import numpy as np

from .errors import DataError, FormatError


def pack(fmt: str, *values) -> bytes:
    return struct.pack("<" + fmt, *values)


def header(magic: bytes, version: int, fmt: str, *values) -> bytes:
    """Magic, version byte, then the header fields `fmt` describes."""
    return magic + pack("B" + fmt, version, *values)


def header_size(magic: bytes, fmt: str) -> int:
    """Bytes in a header that `header(magic, version, fmt, ...)` writes."""
    return len(magic) + struct.calcsize("<B" + fmt)


def strings(values: Iterable[str]) -> list[bytes]:
    """Each value as its UTF-8 bytes behind a u16 byte count, in order."""
    encoded = [s.encode("utf-8") for s in values]
    longest = max(map(len, encoded), default=0)
    if longest > 0xFFFF:
        raise DataError(f"string too long to serialize: {longest} bytes")
    return [len(b).to_bytes(2, "little") + b for b in encoded]


def floats(values) -> bytes:
    return np.asarray(values, dtype="<f4").tobytes()


def finite(values: np.ndarray, at: int, what: str) -> np.ndarray:
    """float32 values read from offset `at`, refusing a non-finite one at its own offset."""
    ok = np.isfinite(values)
    if not ok.all():
        raise FormatError(f"{what} has a non-finite value", at + 4 * int(ok.argmin()))
    return values


class Reader:
    """Fields read in order from a file's bytes; `at` is the offset of the
    next one. When `data` is only a part of the file, `origin` is the file
    offset of its first byte, and errors give offsets in the file."""

    def __init__(self, data: bytes, origin: int = 0):
        self.data = memoryview(data)
        self.at = 0
        self.origin = origin

    def take(self, n: int, what: str) -> memoryview:
        if self.at + n > len(self.data):
            raise FormatError(f"truncated {what}", self.origin + len(self.data))
        self.at += n
        return self.data[self.at - n : self.at]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt), what))

    def header(self, magic: bytes, version: int, what: str, fmt: str) -> tuple:
        """Check the magic and the version byte, then return the fields after them."""
        at = self.origin + self.at
        got, found, *fields = self.unpack(f"{len(magic)}sB" + fmt, f"{what} header")
        if got != magic:
            raise FormatError(f"bad {what} magic {got!r}", at)
        if found != version:
            raise FormatError(f"unsupported {what} version {found}", at + len(magic))
        return tuple(fields)

    def string(self, what: str) -> str:
        (n,) = self.unpack("H", f"{what} length")
        at = self.origin + self.at
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{what} is not valid UTF-8", at) from None

    def floats(self, count: int, what: str) -> np.ndarray:
        """`count` finite float32 values, as a read-only array over the bytes."""
        at = self.origin + self.at
        return finite(np.frombuffer(self.take(4 * count, what), dtype="<f4"), at, what)

    def end(self, what: str) -> None:
        if self.at != len(self.data):
            raise FormatError(f"trailing bytes after the {what}", self.origin + self.at)
