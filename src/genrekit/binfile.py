"""The binary frame behind every artifact format, and checked file reads
and writes.  No other module opens a file: every write, binary or text,
goes through ``write``, and a failed write raises ``IoError``.

An artifact is a 4-byte magic, then little-endian ``<I`` header fields,
typed arrays and UTF-8 strings in the order its format fixes, and nothing
after them.  A read fails with a ``DataError`` (CLI exit 3): ``IoError``,
``BadMagic``, ``TruncatedFile`` (checked before allocating),
``NonFiniteValue``, ``TrailingBytes``, or a string that is not UTF-8.

``write`` rewrites a regular file in place, with its first bytes last:
NUL over the first ``HEAD`` bytes, then the rest of the content, then a cut
to the new length when the old file was longer, then the first ``HEAD``
bytes.  It never truncates first: freeing every block of a file and
allocating it again made rewriting a data set's few hundred small files
about ten times as slow as writing over them on ext4 with online discard,
and a temp file renamed over the old one (a new inode each time) was slower
still.  Until its last step a file under rewrite begins with NUL, or is a
new file still empty, and no artifact does either: a frame fails its magic
check (``BadMagic``), ``read_text`` refuses an empty file and any NUL, and
``write_text`` writes empty text as one newline, which every line-based
reader skips.  So a write that fails at any step leaves no file (the failed
step removes it; a failed open leaves the old file), and one killed at any
step leaves the new file, the old one (killed before its first byte), or a
file every loader refuses.  The order holds against a failed or killed
writer, not against power loss: nothing is synced.  A path that is not a
regular file (``/dev/null``, a pipe, a terminal) is written front to back,
as it comes, and never removed.  One file written and read at the same
time is not supported.
"""

import itertools
import math
import os
import stat
import struct
from contextlib import contextmanager, suppress

import numpy as np

from .errors import (BadMagic, DataError, IoError, NonFiniteValue, ShapeMismatch, TrailingBytes,
                     TruncatedFile)


def read_text(path):
    """A whole UTF-8 text file; IoError if it cannot be read or decoded, and
    DataError if it is empty or holds a NUL, as a file whose write did not
    finish can be."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"{path}: cannot read: {exc}") from exc
    if not text:
        raise DataError(f"{path}: empty file: no text artifact is, "
                        "but a write that did not finish can leave one")
    if "\0" in text:
        raise DataError(f"{path}: NUL at character {text.index(chr(0))}: "
                        "not a text file, or its write did not finish")
    return text


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
    """`text` as UTF-8, empty text as one newline (so that no text artifact is
    empty, as a new file whose write did not start is); IoError if the file
    cannot be written."""
    write(path, (text or "\n").encode("utf-8"))


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


HEAD = 4  # bytes written last: a frame's magic, or a text's first bytes


def _write_all(fd, data, offset=None):
    """All of `data` at `offset`, or at the file position if None."""
    while len(data):
        if offset is None:
            data = data[os.write(fd, data):]
        else:
            n = os.pwrite(fd, data, offset)
            data, offset = data[n:], offset + n


def write(path, *parts):
    """Each part, the magic first: bytes as given, arrays in their own dtype
    and C order, written from their buffer (a copy only if not contiguous).
    A regular file is rewritten in place, its first HEAD bytes last (see the
    module docstring); if a step fails it is removed and IoError raised."""
    views = [memoryview(part) if isinstance(part, bytes)
             else memoryview(np.ascontiguousarray(part).reshape(-1).view(np.uint8))
             for part in parts]
    size = sum(len(view) for view in views)
    head = b"".join(bytes(view[:HEAD]) for view in views)[:HEAD]
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise IoError(f"{path}: cannot write: {exc}") from exc
    old_size = None  # set for a regular file only: nothing else is removed
    try:
        try:
            st = os.fstat(fd)
            if not stat.S_ISREG(st.st_mode):
                for view in views:
                    _write_all(fd, view)
            else:
                old_size = st.st_size
                _write_all(fd, bytes(len(head)), 0)
                offset = 0
                for view in views:
                    skip = min(len(view), max(0, HEAD - offset))
                    _write_all(fd, view[skip:], offset + skip)
                    offset += len(view)
                if old_size > size:
                    os.ftruncate(fd, size)
                _write_all(fd, head, 0)
        finally:
            os.close(fd)
    except OSError as exc:
        if old_size is not None:
            with suppress(OSError):
                os.remove(path)
        raise IoError(f"{path}: cannot write: {exc}") from exc


class Reader:
    """Reads a file's frame front to back from its open handle ``fh``; the
    file is ``size`` bytes long."""

    def __init__(self, path, fh, size):
        self.path, self._fh, self._size, self._pos = path, fh, size, 4

    def _take(self, n):
        if n > self._size - self._pos:
            raise TruncatedFile(f"{self.path}: {n} more bytes needed at offset {self._pos}, "
                                f"but the file has {self._size}")
        self._pos += n
        return self._pos - n

    def _read(self, buf):
        """Fill ``buf``, a C-contiguous writable buffer, from the file position."""
        try:
            n = self._fh.readinto(buf)
        except OSError as exc:
            raise IoError(f"{self.path}: cannot read: {exc}") from exc
        if n != memoryview(buf).nbytes:
            raise TruncatedFile(f"{self.path}: the file ended early: it shrank while read")
        return buf

    def fields(self, n):
        self._take(4 * n)
        return struct.unpack(f"<{n}I", self._read(bytearray(4 * n)))

    def array(self, dtype, shape):
        """The next array; a float array must be finite."""
        dtype = np.dtype(dtype)
        self._take(dtype.itemsize * math.prod(shape))
        values = self._read(np.empty(shape, dtype))
        if dtype.kind == "f" and not np.isfinite(values).all():
            raise NonFiniteValue(f"{self.path}: non-finite value in a {dtype} array")
        return values

    def check(self, dtype, shapes):
        """Skip the next float arrays, one of each shape, checking that they
        are finite through a buffer of at most 1 MiB; ``fill`` reads them."""
        dtype = np.dtype(dtype)
        count = sum(math.prod(shape) for shape in shapes)
        self._checked = self._take(dtype.itemsize * count), [(dtype, tuple(s)) for s in shapes]
        buf = np.empty(min(count, (1 << 20) // dtype.itemsize) or 1, dtype)
        for start in range(0, count, len(buf)):
            if not np.isfinite(self._read(buf[:count - start])).all():
                raise NonFiniteValue(f"{self.path}: non-finite value in a {dtype} array")

    def fill(self, arrays):
        """Read the arrays the last ``check`` passed into ``arrays``:
        C-contiguous, and of the checked dtype and shapes."""
        at, blocks = self._checked
        if [(out.dtype, out.shape) for out in arrays] != blocks:
            raise ShapeMismatch(f"{self.path}: the arrays are not the checked blocks")
        self._fh.seek(at)
        for out in arrays:
            self._read(out)

    def strings(self, n):
        """The next `n` strings, as `strings` writes them."""
        sizes = self.array("<u4", (n,)).tolist()
        self._take(sum(sizes))
        data = self._read(bytearray(sum(sizes)))
        try:
            return [data[at - k:at].decode("utf-8")
                    for at, k in zip(itertools.accumulate(sizes), sizes)]
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: a string is not UTF-8: {exc}") from exc

    def end(self):
        """TrailingBytes unless every byte of the file has been read."""
        if self._pos != self._size:
            raise TrailingBytes(f"{self.path}: {self._size - self._pos} bytes after the last "
                                "payload")


@contextmanager
def reader(path, magic):
    """A Reader over `path`, whose magic must be `magic`; leaving the block
    checks every byte was read."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise IoError(f"{path}: cannot read: {exc}") from exc
    with fh:
        frame = Reader(path, fh, os.fstat(fh.fileno()).st_size)
        head = bytes(frame._read(bytearray(min(4, frame._size))))
        if head != magic:
            raise BadMagic(f"{path}: magic {head!r} is not {magic!r}")
        yield frame
        frame.end()
