"""Low-level helpers shared by the binary file formats and the CLI.

Every container is magic bytes followed by little-endian fields: unsigned
scalars, typed arrays of a declared shape and length-prefixed text.
:class:`Writer` packs them; :func:`reading` yields a :class:`Reader` that
knows how many bytes the file holds, so a size declared in a header is
checked against the bytes left before anything is read or allocated, and
bytes left over after the last field are rejected.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from contextlib import contextmanager

import numpy as np

from .errors import FormatError

_UINT = {1: "B", 2: "H", 4: "I", 8: "Q"}


def atomic_write_bytes(path: str, data) -> None:
    """Write a file via temp-file + rename so readers never see partial output.

    ``data`` is bytes, or a :class:`Writer`, whose parts are written in turn
    without being joined; ``len(data)`` is the byte count either way.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            for part in data if isinstance(data, Writer) else (data,):
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_exact(f, n: int, what: str, out=None):
    """Read exactly n bytes or raise a FormatError naming the shortfall.

    Returns the bytes, or, given an ``out`` array of n bytes, fills it and
    returns it.
    """
    if out is None:
        data = f.read(n)
        got = len(data)
    else:
        data = out
        got = f.readinto(out.reshape(-1).view(np.uint8))
    if got != n:
        raise FormatError(f"truncated file: expected {n} bytes for {what}, got {got}")
    return data


class Writer:
    """Accumulates one container's fields; :meth:`save` writes them atomically.

    Arrays are kept, not copied to bytes, when they already have the declared
    dtype and are contiguous, so they must not change before :meth:`save`.
    Iterating yields the parts in order; ``len()`` is their total byte count.
    """

    def __init__(self, magic: bytes):
        self._parts = []
        self._size = 0
        self._add(magic)

    def _add(self, part) -> None:
        self._parts.append(part)
        self._size += memoryview(part).nbytes

    def __iter__(self):
        return iter(self._parts)

    def __len__(self) -> int:
        return self._size

    def _uints(self, size: int, values) -> None:
        self._add(struct.pack(f"<{len(values)}{_UINT[size]}", *values))

    def u8(self, *values: int) -> None:
        self._uints(1, values)

    def u32(self, *values: int) -> None:
        self._uints(4, values)

    def u64(self, *values: int) -> None:
        self._uints(8, values)

    def array(self, a, dtype: str) -> None:
        """Row-major data of ``a`` as ``dtype`` (e.g. ``"<f8"``); the shape is not written."""
        self._add(np.ascontiguousarray(a, dtype=dtype))

    def text(self, value: str, prefix: int = 4, encoding: str = "utf-8") -> None:
        """Encoded text preceded by its byte length as a ``prefix``-byte unsigned int."""
        raw = value.encode(encoding)
        self._uints(prefix, (len(raw),))
        self._add(raw)

    def save(self, path: str) -> None:
        atomic_write_bytes(path, self)


class Reader:
    """Sequential reader over an open container that tracks the bytes left."""

    def __init__(self, f, size: int):
        self._f = f
        self.left = size

    def _claim(self, n: int, what: str) -> None:
        if n > self.left:
            raise FormatError(
                f"truncated file: expected {n} bytes for {what}, got {self.left}"
            )
        self.left -= n

    def _take(self, n: int, what: str) -> bytes:
        self._claim(n, what)
        return read_exact(self._f, n, what)

    def _uints(self, size: int, count: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{count}{_UINT[size]}", self._take(size * count, what))

    def u8(self, what: str) -> int:
        return self._uints(1, 1, what)[0]

    def u32(self, what: str) -> int:
        return self._uints(4, 1, what)[0]

    def u64(self, what: str) -> int:
        return self._uints(8, 1, what)[0]

    def u32s(self, count: int, what: str) -> tuple[int, ...]:
        return self._uints(4, count, what)

    def array(self, dtype: str, shape, what: str) -> np.ndarray:
        """A writable native-endian copy of ``shape`` values stored as ``dtype``."""
        dt = np.dtype(dtype)
        n = dt.itemsize * math.prod(shape)
        self._claim(n, what)
        try:
            out = np.empty(shape, dtype=dt)
        except ValueError:  # too many axes, or a zero-size shape numpy cannot index
            raise FormatError(f"{what} has a shape numpy cannot hold: {shape}") from None
        read_exact(self._f, n, what, out)
        return out.astype(dt.newbyteorder("="), copy=False)

    def text(self, what: str, prefix: int = 4, encoding: str = "utf-8") -> str:
        raw = self._take(self._uints(prefix, 1, f"{what} length")[0], what)
        try:
            return raw.decode(encoding)
        except UnicodeDecodeError:
            raise FormatError(f"{what} is not valid {encoding} text") from None


@contextmanager
def reading(path: str, magic: bytes):
    """Open a container, check its magic and yield a :class:`Reader`.

    When the body finishes without error, any unread byte is a FormatError.
    """
    with open(path, "rb") as f:
        r = Reader(f, os.fstat(f.fileno()).st_size)
        got = r._take(min(len(magic), r.left), "magic")
        if got != magic:
            raise FormatError(f"bad magic: expected {magic!r}, got {got!r}")
        yield r
        if r.left:
            raise FormatError(f"{r.left} trailing bytes after the {magic.decode()} data")
