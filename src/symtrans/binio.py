"""Binary records of the SVOL and SYMT formats, and their CRC32 trailer.

Every read is checked against the bytes left before the trailer, so no
length, rank or extent read from a file can drive a read or allocation past
its end. Every float read must be finite: a volume, parameter or moment
holding NaN or Inf is refused where it is read rather than failing a later
warp. The trailer, ``zlib.crc32`` of every byte before it as u32 LE, refuses
any other changed byte. Errors name the file and the field, in the format's
own ``ValueError`` subclass.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np


class Reader:
    """Reads one open file front to back, field by field, then its trailer."""

    def __init__(self, f, path, error):
        self.f = f
        self.path = path
        self.error = error
        self.left = max(os.fstat(f.fileno()).st_size - 4, 0)  # before the trailer
        self.crc = 0

    def fail(self, message) -> ValueError:
        return self.error(f"{self.path}: {message}")

    def bytes(self, n: int, field: str) -> bytes:
        if n > self.left:
            raise self.fail(f"truncated: {field} length {n} runs past the end "
                            f"({self.left} bytes left)")
        self.left -= n
        data = self.f.read(n)
        self.crc = zlib.crc32(data, self.crc)
        return data

    def unpack(self, fmt: str, field: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack(fmt, self.bytes(struct.calcsize(fmt), field))

    def u32(self, field: str) -> int:
        return self.unpack("I", field)[0]

    def magic(self, expected: bytes, what: str):
        found = self.bytes(len(expected), "magic")
        if found != expected:
            raise self.fail(f"bad {what} magic {found!r}, expected {expected!r}")

    def version(self, supported: int, what: str):
        found = self.u32("version")
        if found != supported:
            raise self.fail(f"unsupported {what} version {found}; "
                            f"this build reads version {supported}")

    def name(self, field: str) -> str:
        raw = self.bytes(self.u32(f"{field} length"), field)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise self.fail(f"{field} is not UTF-8: {e}") from None

    def shape(self, field: str) -> tuple:
        return self.unpack(f"{self.u32(f'{field} rank')}I", f"{field} extents")

    def float32(self, shape, field: str) -> np.ndarray:
        data = np.frombuffer(self.bytes(4 * math.prod(shape), field), dtype="<f4")
        if not np.isfinite(data).all():
            raise self.fail(f"{field} holds non-finite values "
                            f"({np.count_nonzero(~np.isfinite(data))} of {data.size})")
        try:  # over 64 axes, or zero-size extents whose product overflows
            return data.reshape(shape).copy()
        except ValueError:
            raise self.fail(f"{field}: numpy cannot hold {len(shape)} axes of "
                            f"extents up to {max(shape)}") from None

    def end(self, after: str):
        if self.left:
            raise self.fail(f"{self.left} trailing bytes after {after}")
        (stored,) = struct.unpack("<I", self.f.read(4))
        if stored != self.crc:
            raise self.fail(f"CRC32 trailer {stored:#010x} does not match the "
                            f"{self.crc:#010x} of the bytes before it")


@contextlib.contextmanager
def atomic_write(path):
    """A binary file to write ``path`` through: a temporary file beside it,
    which gets the trailer when the block ends, then replaces ``path``, and
    is removed if the block raises. Its name starts with a dot, so no
    ``checkpoint_*`` glob sees it. There is no fsync: this guards against a
    killed process, not power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w+b") as f:
            yield f
            f.seek(0)
            crc = 0
            for chunk in iter(functools.partial(f.read, 1 << 20), b""):
                crc = zlib.crc32(chunk, crc)
            f.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_record(f, name: str, *arrays):
    """Write a name, then each array as (rank, extents, float32-LE data)."""
    nb = name.encode("utf-8")
    f.write(struct.pack("<I", len(nb)) + nb)
    for a in arrays:
        f.write(struct.pack(f"<{a.ndim + 1}I", a.ndim, *a.shape))
        f.write(np.ascontiguousarray(a, dtype="<f4").tobytes())
