"""The one reader of the four binary files: features (``FEA1``), models
(``XVEC``), embedding archives (``XEMB``) and back-ends (``XBKD``). Each is
a four-byte magic, then little-endian fields, and nothing after the last;
each writer documents its own layout. A file cut short, with bytes after its
last field or with a non-finite value is a FormatError naming the field."""

import struct

import numpy as np

from .errors import FormatError


class BinaryReader:
    """One file, read whole and taken field by field from the front."""

    def __init__(self, path, magic: bytes, what: str):
        with open(path, "rb") as fh:
            self._raw = memoryview(fh.read())
        self.path, self.what, self._pos = path, what, len(magic)
        if self._raw[: self._pos] != magic:
            raise self.error(f"not a {what} (bad magic)")

    def error(self, message: str) -> FormatError:
        return FormatError(f"{self.path}: {message}")

    def take(self, n: int, what: str) -> memoryview:
        """The next n bytes, uncopied."""
        if n > len(self._raw) - self._pos:
            raise self.error(f"truncated {self.what} ({what})")
        self._pos += n
        return self._raw[self._pos - n : self._pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError:
            raise self.error(f"{what} is not UTF-8") from None

    def values(self, dtype: str, count: int, what: str) -> np.ndarray:
        """The next count values, a read-only view of the file; each must be
        finite."""
        arr = np.frombuffer(self.take(count * np.dtype(dtype).itemsize, what), dtype=dtype)
        if not np.isfinite(arr).all():
            raise self.error(f"{what} contains non-finite values")
        return arr

    def close(self) -> None:
        """The file must end with its last field."""
        if self._pos != len(self._raw):
            raise self.error(f"{len(self._raw) - self._pos} trailing bytes")
