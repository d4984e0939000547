"""SVOL volume container: the on-disk format for images, labels, and fields.

Layout: magic ``SVOL``, version u32 (=2), kind u8, channels u32, extents
u32 x 3 (D, H, W), then channels*D*H*W float32 little-endian scalars in
C order with channel slowest, then the CRC32 trailer of ``binio``. Labels are
stored as reals holding integers.
"""

from __future__ import annotations

import struct

import numpy as np

from .binio import Reader, atomic_write

MAGIC = b"SVOL"
VERSION = 2

KIND_IMAGE = 0
KIND_LABELS = 1
KIND_DISPLACEMENT = 2
KIND_VELOCITY = 3
KIND_NAMES = {
    KIND_IMAGE: "image",
    KIND_LABELS: "labels",
    KIND_DISPLACEMENT: "displacement",
    KIND_VELOCITY: "velocity",
}


class SvolError(ValueError):
    """Malformed SVOL content (as opposed to an I/O failure)."""


def write_svol(path, data: np.ndarray, kind: int):
    if kind not in KIND_NAMES:
        raise SvolError(f"unknown SVOL kind {kind}")
    data = np.asarray(data)
    if data.ndim == 3:
        data = data[None]
    if data.ndim != 4:
        raise SvolError(f"SVOL payload must be (C, D, H, W), got {data.shape}")
    if 0 in data.shape:
        raise SvolError(f"{path}: SVOL payload {data.shape} has an empty channel "
                        f"axis or extent")
    c, d, h, w = data.shape
    with atomic_write(path) as f:
        f.write(MAGIC + struct.pack("<IBI3I", VERSION, kind, c, d, h, w))
        f.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def read_svol(path):
    """Read a volume back as (array (C,D,H,W) float32, kind)."""
    with open(path, "rb") as f:
        r = Reader(f, path, SvolError)
        r.magic(MAGIC, "SVOL")
        r.version(VERSION, "SVOL")
        (kind,) = r.unpack("B", "kind")
        if kind not in KIND_NAMES:
            raise r.fail(f"unknown SVOL kind {kind}")
        shape = r.unpack("4I", "channels and extents")
        if 0 in shape:
            raise r.fail(f"channels and extents {shape}: a volume needs at least "
                         f"one channel and one voxel on each axis")
        data = r.float32(shape, "payload")
        r.end("the payload")
    return data, kind


def read_labels(path) -> np.ndarray:
    data, kind = read_svol(path)
    if kind != KIND_LABELS:
        raise SvolError(f"{path}: expected labels, found {KIND_NAMES[kind]!r}")
    return np.rint(data[0]).astype(np.int64)


def read_field(path):
    data, kind = read_svol(path)
    if kind not in (KIND_DISPLACEMENT, KIND_VELOCITY):
        raise SvolError(f"{path}: expected a field, found {KIND_NAMES[kind]!r}")
    if data.shape[0] != 3:
        raise SvolError(f"{path}: field volumes need 3 channels, found {data.shape[0]}")
    return data, kind
