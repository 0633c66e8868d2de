"""Little-endian binary container shared by all sketch file formats.

Layout: 4-byte magic (the sketch class's ``MAGIC``), u16 format version, then a type-specific payload.
See docs/formats.md for the per-type payload layouts.
"""

from __future__ import annotations

import math
import struct

import numpy as np

FORMAT_VERSION = 1


class FormatError(ValueError):
    pass


class Writer:
    def __init__(self, magic: bytes):
        self._parts = [magic, struct.pack("<H", FORMAT_VERSION)]

    def u8(self, v: int):
        self._parts.append(struct.pack("<B", v))

    def u16(self, v: int):
        self._parts.append(struct.pack("<H", v))

    def u64(self, v: int):
        self._parts.append(struct.pack("<Q", v & (2**64 - 1)))

    def f64(self, v: float):
        self._parts.append(struct.pack("<d", v))

    def fields(self, obj, header) -> None:
        """``obj``'s attribute of each (attribute, method) pair of ``header``,
        written by that method."""
        for name, kind in header:
            getattr(self, kind)(getattr(obj, name))

    def array(self, a: np.ndarray):
        a = np.ascontiguousarray(a, dtype=np.float64)
        self.u64(a.size)
        self._parts.append(a.tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    def __init__(self, data: bytes, magic: bytes):
        self._data = data
        self._pos = 0
        got = self._take(4)
        if got != magic:
            raise FormatError(f"bad magic {got!r}, expected {magic!r}")
        version = self.u16()
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {version}")

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise FormatError("truncated sketch file")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def finite_f64s(self, n: int, what: str) -> tuple:
        """``n`` f64 values, rejected if one is not finite."""
        vals = struct.unpack(f"<{n}d", self._take(8 * n))
        if not all(map(math.isfinite, vals)):
            raise FormatError(f"non-finite value in {what} = {vals}")
        return vals

    def fields(self, header) -> dict:
        """Each attribute of the (attribute, method) pairs of ``header``, by
        name, read by its method."""
        return {name: getattr(self, kind)() for name, kind in header}

    def array(self) -> np.ndarray:
        n = self.u64()
        if self._pos + 8 * n > len(self._data):
            raise FormatError("truncated sketch file")
        # one copy, straight from the file's bytes
        out = np.frombuffer(self._data, dtype="<f8", count=n, offset=self._pos).copy()
        self._pos += 8 * n
        return out

    def sorted_array(self) -> np.ndarray:
        """An array the writer stores ascending: sorted here only if it is not
        (a crafted file), and rejected if it holds a value that is not finite."""
        out = self.array()
        if out.size > 1 and not (out[:-1] <= out[1:]).all():
            out.sort()  # NaNs sort last
        if out.size and not (np.isfinite(out[0]) and np.isfinite(out[-1])):
            raise FormatError("a stored buffer holds a non-finite value")
        return out

    def need(self, nbytes: int, what: str) -> None:
        """Reject ``what`` unless at least ``nbytes`` bytes are left to read."""
        if nbytes > len(self._data) - self._pos:
            raise FormatError(f"{what} needs more bytes than the file has left")

    def done(self) -> None:
        """Reject bytes left over after the payload."""
        extra = len(self._data) - self._pos
        if extra:
            raise FormatError(f"{extra} trailing bytes after the sketch payload")
