"""Differentiable warping, field composition, and diffeomorphic integration.

Displacement fields are (3, D, H, W) voxel-unit offsets along the (d, h, w)
axes; the full map is phi(p) = p + u(p). Sampling clamps to the volume border.
Velocity fields are exponentiated by scaling and squaring: halve the field T
times, then self-compose T times.

A trilinear sample keeps three arrays per voxel on the tape besides its two
inputs: the flat index of the low corner (int64), the fractional position
(3 values of the field's dtype) and the inside-the-volume mask (3 bools).
That is 23 bytes per voxel at float32; the backward rule recomputes the
interpolation weights from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .configio import integer
from .tensor import Tensor, make_op


@dataclass
class IntegrationConfig:
    steps: int = 7

    def __post_init__(self):
        self.steps = integer("integration steps", self.steps)
        if not 1 <= self.steps <= 12:
            raise ValueError(f"integration steps must be in [1, 12], got {self.steps}")


@dataclass
class FoldingStats:
    """Non-positive Jacobian determinant tally over interior voxels."""

    count: int
    fraction: float
    interior_voxels: int


def trilinear_sample(field: Tensor, offsets: Tensor) -> Tensor:
    """Sample ``field`` at p + offsets(p), trilinearly, clamping to the border.

    Differentiable in both arguments; the offset gradient flows through the
    interpolation weights and is zero where the clamp is active. Each corner
    is one gather at a flat voxel index: the low corner's index plus a fixed
    step per axis (0 on an axis of extent 1).
    """
    if field.ndim != 4 or offsets.ndim != 4 or offsets.shape[0] != 3:
        raise ValueError(
            f"trilinear_sample: field {field.shape}, offsets {offsets.shape}"
        )
    if field.shape[1:] != offsets.shape[1:]:
        raise ValueError(
            f"trilinear_sample: spatial mismatch {field.shape} vs {offsets.shape}"
        )
    if not np.isfinite(offsets.data).all():
        raise ValueError("trilinear_sample: offsets contain non-finite values")
    c = field.shape[0]
    spatial = field.shape[1:]
    n = int(np.prod(spatial))
    dtype = field.data.dtype
    base = np.zeros(spatial, dtype=np.int64)
    frac = np.empty((3,) + spatial, dtype=dtype)
    inside = np.empty((3,) + spatial, dtype=bool)
    for ax, ext in enumerate(spatial):
        line = [1, 1, 1]
        line[ax] = ext
        coord = np.arange(ext, dtype=dtype).reshape(line) + offsets.data[ax]
        inside[ax] = (coord >= 0.0) & (coord <= ext - 1.0)
        cl = np.clip(coord, 0.0, ext - 1.0)
        i0 = np.floor(cl).astype(np.int64)
        np.minimum(i0, max(ext - 2, 0), out=i0)
        frac[ax] = cl - i0
        base *= ext
        base += i0
    d, h, w = spatial
    step = (h * w if d > 1 else 0, w if h > 1 else 0, 1 if w > 1 else 0)
    # (bits, flat-index step) of the 8 corners, low corner first
    corners = [((bd, bh, bw), bd * step[0] + bh * step[1] + bw * step[2])
               for bd in (0, 1) for bh in (0, 1) for bw in (0, 1)]

    fdat = field.data
    flat_base = base.reshape(n)

    def gather(s, into):
        """Write every voxel's field values at the corner ``s`` flat steps up."""
        # indices are in range by construction; "clip" lets take write
        # straight into ``into`` where "raise" would buffer
        np.take(fdat.reshape(c, n), flat_base + s, axis=1, out=into, mode="clip")

    def factors():
        """Per-axis weight factors (1 - frac, frac), flattened."""
        return [(1.0 - frac[ax].reshape(n), frac[ax].reshape(n)) for ax in range(3)]

    def pair(fac, a, b):
        """Products of the factors of axes a < b, indexed [bit_a][bit_b]."""
        return [[fac[a][i] * fac[b][j] for j in (0, 1)] for i in (0, 1)]

    fac = factors()
    dh = pair(fac, 0, 1)
    out = np.zeros((c, n), dtype=dtype)
    v = np.empty((c, n), dtype=dtype)
    for (bd, bh, bw), s in corners:
        gather(s, v)
        v *= dh[bd][bh] * fac[2][bw]
        out += v
    out = out.reshape((c,) + spatial)

    def rule(gy):
        gy = gy.reshape(c, n)
        fac = factors()
        # others[ax]: products of the factors of the two axes other than ax
        other_axes = ((1, 2), (0, 2), (0, 1))
        others = [pair(fac, a, b) for a, b in other_axes]
        dfield = np.zeros_like(fdat) if field.requires_grad else None
        acc = np.zeros((3, c, n), dtype=dtype) if offsets.requires_grad else None
        chan_base = (np.arange(c, dtype=np.int64)[:, None] * n + flat_base).ravel()
        v = np.empty((c, n), dtype=dtype)
        term = np.empty((c, n), dtype=dtype)
        w64 = np.empty((c, n), dtype=np.float64)
        for bits, s in corners:
            gather(s, v)
            if dfield is not None:
                # one bincount over channel-offset indices. The product is
                # rounded in the field's dtype (numpy picks the loop from the
                # inputs) and stored as the float64 weights bincount would
                # otherwise convert to itself, more slowly
                np.multiply(gy, others[2][bits[0]][bits[1]] * fac[2][bits[2]], out=w64)
                dfield += np.bincount(
                    chan_base + s, weights=w64.ravel(), minlength=c * n
                ).astype(dtype).reshape(fdat.shape)
            if acc is not None:
                # derivative w.r.t. each coordinate: difference of the two
                # corner planes along that axis, interpolated over the others
                for ax, (a, b) in enumerate(other_axes):
                    np.multiply(v, others[ax][bits[a]][bits[b]], out=term)
                    if bits[ax]:
                        acc[ax] += term
                    else:
                        acc[ax] -= term
        doff = None
        if acc is not None:
            doff = np.empty((3,) + spatial, dtype=dtype)
            for ax in range(3):
                doff[ax] = (np.sum(gy * acc[ax], axis=0)
                            * inside[ax].reshape(n).astype(dtype)).reshape(spatial)
        return dfield, doff

    return make_op((field, offsets), out, rule)


def warp(image: Tensor, u: Tensor) -> Tensor:
    """Warp an image by a displacement field: out(p) = I(p + u(p))."""
    return trilinear_sample(image, u)


def compose(a: Tensor, b: Tensor) -> Tensor:
    """Displacement of the composed map a after b: b(p) + a(p + b(p))."""
    if a.shape != b.shape:
        raise ValueError(f"compose: shape mismatch {a.shape} vs {b.shape}")
    return T.add(b, trilinear_sample(a, b))


def integrate(v: Tensor, cfg: IntegrationConfig | None = None) -> Tensor:
    """Exponentiate a stationary velocity field by scaling and squaring."""
    if cfg is None:
        cfg = IntegrationConfig()
    if not np.isfinite(v.data).all():
        raise ValueError("integrate: velocity field contains non-finite values")
    u = T.scalar_mul(v, 1.0 / float(2 ** cfg.steps))
    for _ in range(cfg.steps):
        u = compose(u, u)
    return u


def jacobian_determinant(u: np.ndarray):
    """Per-voxel det(I + grad u) and folding statistics.

    Central differences on interior voxels, one-sided at the faces; the
    folding tally covers interior voxels only so analytic affine fixtures are
    exact.
    """
    u = np.asarray(u)
    if u.ndim != 4 or u.shape[0] != 3:
        raise ValueError(f"jacobian_determinant expects (3, D, H, W), got {u.shape}")
    if min(u.shape[1:]) < 3:
        raise ValueError(f"extents {u.shape[1:]} too small for differences")
    J = np.empty((3, 3) + u.shape[1:], dtype=np.float64)
    for i in range(3):
        grads = np.gradient(u[i].astype(np.float64), axis=(0, 1, 2))
        for j in range(3):
            J[i, j] = grads[j]
        J[i, i] += 1.0
    det = (
        J[0, 0] * (J[1, 1] * J[2, 2] - J[1, 2] * J[2, 1])
        - J[0, 1] * (J[1, 0] * J[2, 2] - J[1, 2] * J[2, 0])
        + J[0, 2] * (J[1, 0] * J[2, 1] - J[1, 1] * J[2, 0])
    )
    interior = det[1:-1, 1:-1, 1:-1]
    count = int(np.sum(interior <= 0.0))
    stats = FoldingStats(
        count=count,
        fraction=count / interior.size,
        interior_voxels=interior.size,
    )
    return det, stats
