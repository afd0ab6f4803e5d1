"""Bounds-checked reading of the little-endian binary artifacts (PHN1, STL1,
EDS1, CKP1): a corrupt or truncated file raises a `FormatError` subclass
naming the file, never a bare numpy or struct error."""

import math
import struct

import numpy as np


class FormatError(ValueError):
    """An artifact that is corrupt, truncated or not of the expected format."""


def pack_str(s):
    """A u16 byte length followed by the UTF-8 bytes of `s`."""
    b = s.encode("utf-8")
    return struct.pack("<H", len(b)) + b


class Reader:
    """Sequential reader over one whole file. Every read is checked against
    the file length, and every failure raises `error` (a `FormatError`
    subclass) naming the file; `what` names the field being read."""

    def __init__(self, path, magic, error):
        self.path, self.error = path, error
        with open(path, "rb") as f:
            self.raw = f.read()
        if self.raw[:len(magic)] != magic:
            raise error(f"bad {magic.decode()} magic in {path}: {self.raw[:len(magic)]!r}")
        self.last = self.off = len(magic)

    def fail(self, msg):
        """Raise `error` for the value read last."""
        raise self.error(f"{msg} in {self.path} at offset {self.last}")

    def _take(self, n, what):
        if self.off + n > len(self.raw):
            raise self.error(f"truncated {self.path}: {what} needs {n} bytes at offset "
                             f"{self.off}, file has {len(self.raw)}")
        self.last, self.off = self.off, self.off + n
        return self.last

    def unpack(self, fmt, what):
        """A tuple of values in struct format `fmt`, read little-endian."""
        fmt = "<" + fmt
        return struct.unpack_from(fmt, self.raw, self._take(struct.calcsize(fmt), what))

    def array(self, dtype, shape, what):
        """A new C-ordered array of `dtype` and `shape`."""
        dtype, count = np.dtype(dtype), math.prod(shape)
        flat = np.frombuffer(self.raw, dtype, count, self._take(count * dtype.itemsize, what))
        try:
            return flat.reshape(shape).copy()
        except ValueError:  # a zero-size shape whose other dims overflow numpy's sizes
            self.fail(f"{what} has impossible shape {shape}")

    def string(self, what):
        """A string as written by `pack_str`."""
        (n,) = self.unpack("H", what)
        start = self._take(n, what)
        try:
            return self.raw[start:start + n].decode("utf-8")
        except UnicodeDecodeError:
            self.fail(f"{what} is not UTF-8")

    def end(self):
        """Check that the whole file has been read."""
        if self.off != len(self.raw):
            raise self.error(f"trailing bytes in {self.path} at offset {self.off}")
