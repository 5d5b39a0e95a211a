"""The binary frame behind every artifact format, and checked file reads
and writes.  No other module opens a file: every write, binary or text,
goes through ``write``, and a failed write raises ``IoError``.

An artifact is a 4-byte magic, then little-endian ``<I`` header fields,
typed arrays and UTF-8 strings in the order its format fixes, and nothing
after them.  A read fails with a ``DataError`` (CLI exit 3): ``IoError``,
``BadMagic``, ``TruncatedFile`` (checked before allocating),
``NonFiniteValue``, ``TrailingBytes``, or a string that is not UTF-8.
"""

import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import BadMagic, DataError, IoError, NonFiniteValue, TrailingBytes, TruncatedFile


def read_text(path):
    """A whole UTF-8 text file; IoError if it cannot be read or decoded."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"{path}: cannot read: {exc}") from exc


def make_dirs(path):
    """`path` and its missing parents; IoError if they cannot be made."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"{path}: cannot make directory: {exc}") from exc


def remove(path):
    """Removes the file `path` if there is one; IoError if it cannot."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise IoError(f"{path}: cannot remove: {exc}") from exc


def write_text(path, text):
    """`text` as UTF-8; IoError if the file cannot be written."""
    write(path, text.encode("utf-8"))


def fields(*values):
    """Header fields as bytes."""
    return struct.pack(f"<{len(values)}I", *values)


def strings(values):
    """Strings as two parts, their UTF-8 byte lengths as ``<u4`` and then the
    bytes; DataError for a value that is not a str or holds a lone surrogate."""
    try:
        encoded = [str.encode(value, "utf-8") for value in values]
    except (TypeError, UnicodeEncodeError) as exc:
        raise DataError(f"cannot store a string as UTF-8: {exc}") from exc
    return np.array([len(e) for e in encoded], "<u4"), b"".join(encoded)


def write(path, *parts):
    """Each part, the magic first: bytes as given, arrays in their own dtype
    and C order, written from their buffer (a copy only if not contiguous)."""
    try:
        with open(path, "wb") as fh:
            for part in parts:
                fh.write(part if isinstance(part, bytes) else np.ascontiguousarray(part).data)
    except OSError as exc:
        raise IoError(f"{path}: cannot write: {exc}") from exc


class Reader:
    """Reads a file's frame front to back."""

    def __init__(self, path, data):
        self.path, self._data, self._pos = path, data, 4

    def _take(self, n):
        if n > len(self._data) - self._pos:
            raise TruncatedFile(f"{self.path}: {n} more bytes needed at offset {self._pos}, "
                                f"but the file has {len(self._data)}")
        self._pos += n
        return self._pos - n

    def fields(self, n):
        return struct.unpack_from(f"<{n}I", self._data, self._take(4 * n))

    def array(self, dtype, shape):
        """A read-only view of the next array; a float array must be finite."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        values = np.frombuffer(self._data, dtype, count, self._take(dtype.itemsize * count))
        if dtype.kind == "f" and not np.isfinite(values).all():
            raise NonFiniteValue(f"{self.path}: non-finite value in a {dtype} array")
        return values.reshape(shape)

    def strings(self, n):
        """The next `n` strings, as `strings` writes them."""
        spans = [(self._take(k), k) for k in self.array("<u4", (n,)).tolist()]
        try:
            return [self._data[at:at + k].decode("utf-8") for at, k in spans]
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: a string is not UTF-8: {exc}") from exc


@contextmanager
def reader(path, magic):
    """A Reader over `path`, whose magic must be `magic`; leaving the block
    checks every byte was read."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"{path}: cannot read: {exc}") from exc
    if data[:4] != magic:
        raise BadMagic(f"{path}: magic {data[:4]!r} is not {magic!r}")
    frame = Reader(path, data)
    yield frame
    if frame._pos != len(data):
        raise TrailingBytes(f"{path}: {len(data) - frame._pos} bytes after the last payload")
