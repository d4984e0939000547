"""Differentiable warping, field composition, and diffeomorphic integration.

Displacement fields are (3, D, H, W) voxel-unit offsets along the (d, h, w)
axes; the full map is phi(p) = p + u(p). Sampling clamps to the volume border.
Velocity fields are exponentiated by scaling and squaring: halve the field T
times, then self-compose T times.

A trilinear sample's rule keeps three arrays per voxel besides the field it
samples (not the offsets, and no Tensor): the flat index of the low corner
(int64), the fractional position (3 values of the field's dtype) and the
inside-the-volume mask (3 bools). That is 23 bytes per voxel at float32;
the backward rule recomputes the interpolation weights from them.

The forward runs in depth slabs of ``SAMPLE_SLAB_VOXELS`` voxels (one depth
at least). Each slab computes its own coordinates, clamp, low-corner index,
fractions and mask and gathers its 8 corners, writing only its slice of the
output and of the three saved arrays. The forward and the backward hand
work to ``ops``' worker with ``ops.side_by_side`` (see the affinity rule
there). From ``SAMPLE_THREAD_VOXELS`` voxels the slabs of the first half of
the depths run on the worker while the calling thread samples the second
half. When
both inputs need a gradient, the backward's field scatter runs on the worker
while the calling thread computes the offset gradient, under conv3d's gate
on the gradient's size, ``ops.BACKWARD_THREAD_VALUES``. The worker calls raw
numpy only. Every voxel's arithmetic is the same on either thread and at any
slab size, so the bytes are too; what the backward reads is still the 23
bytes per voxel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from . import tensor as T
from .tensor import Tensor, make_op

# Voxels in one depth slab of trilinear_sample's forward (and of
# jacobian_determinant), so that a slab's indices, weights and gathered
# corners (its Jacobian) stay in cache between the passes over them.
SAMPLE_SLAB_VOXELS = 1 << 15

# Voxels from which trilinear_sample's forward samples the first half of the
# depths on ops' worker. Set per training step, not per call: a 32^3 forward
# gains alone but loses within a step, where the pair producer holds the
# second core.
SAMPLE_THREAD_VOXELS = 1 << 16


@dataclass
class FoldingStats:
    """Non-positive Jacobian determinant tally over interior voxels."""

    count: int
    fraction: float
    interior_voxels: int


def _sample_slab(fdat, off, z0, z1, out, base, frac, inside):
    """Sample depths z0:z1 of ``trilinear_sample``'s forward into their
    slices of ``out`` (C, D*H*W), ``base``, ``frac`` and ``inside``; ``out``
    and ``base`` start at zero. Raw numpy only, so it may run on ``ops``'
    worker."""
    c, d, h, w = fdat.shape
    m = (z1 - z0) * h * w
    dtype = fdat.dtype
    bases = base[z0:z1]
    fracs = frac[:, z0:z1]
    for ax, (lo, hi, ext) in enumerate(((z0, z1, d), (0, h, h), (0, w, w))):
        line = [1, 1, 1]
        line[ax] = hi - lo
        coord = np.arange(lo, hi, dtype=dtype).reshape(line) + off[ax, z0:z1]
        inside[ax, z0:z1] = (coord >= 0.0) & (coord <= ext - 1.0)
        cl = np.clip(coord, 0.0, ext - 1.0)
        i0 = np.floor(cl).astype(np.int64)
        np.minimum(i0, max(ext - 2, 0), out=i0)
        fracs[ax] = cl - i0
        bases *= ext
        bases += i0
    fac = _factors(fracs.reshape(3, m))
    dh = _pair(fac, 0, 1)
    flat_base = bases.reshape(m)
    acc = out[:, z0 * h * w:z1 * h * w]
    v = np.empty((c, m), dtype=dtype)
    for (bd, bh, bw), s in _corners((d, h, w)):
        _gather(fdat, flat_base, s, v)
        v *= dh[bd][bh] * fac[2][bw]
        acc += v


def _field_grad(gy, fdat, flat_base, corners, dh, fac_w):
    """The field's gradient: per corner, ``gy`` times the corner's weight
    (``dh`` of its d and h bits times ``fac_w`` of its w bit) scattered to the
    corner's voxels, added in corner order. Raw numpy only, so it may run on
    ``ops``' worker."""
    c, n = gy.shape
    dfield = np.zeros_like(fdat)
    chan_base = (np.arange(c, dtype=np.int64)[:, None] * n + flat_base).ravel()
    w64 = np.empty((c, n), dtype=np.float64)
    for (bd, bh, bw), s in corners:
        # one bincount over channel-offset indices. The product is rounded in
        # the field's dtype (numpy picks the loop from the inputs) and stored
        # as the float64 weights bincount would otherwise convert to itself,
        # more slowly
        np.multiply(gy, dh[bd][bh] * fac_w[bw], out=w64)
        dfield += np.bincount(
            chan_base + s, weights=w64.ravel(), minlength=c * n
        ).astype(fdat.dtype).reshape(fdat.shape)
    return dfield


def _corners(spatial):
    """(bits, flat-index step) of the 8 corners, low corner first."""
    d, h, w = spatial
    step = (h * w if d > 1 else 0, w if h > 1 else 0, 1 if w > 1 else 0)
    return [((bd, bh, bw), bd * step[0] + bh * step[1] + bw * step[2])
            for bd in (0, 1) for bh in (0, 1) for bw in (0, 1)]


def _gather(fdat, flat_base, s, into):
    """Write the field values at the corner ``s`` flat steps above each
    index of ``flat_base``."""
    # indices are in range by construction; "clip" lets take write straight
    # into ``into`` where "raise" would buffer
    c = fdat.shape[0]
    np.take(fdat.reshape(c, -1), flat_base + s, axis=1, out=into, mode="clip")


def _factors(frac):
    """Per-axis weight factors (1 - frac, frac) of flat (3, n) fractions."""
    return [(1.0 - frac[ax], frac[ax]) for ax in range(3)]


def _pair(fac, a, b):
    """Products of the factors of axes a < b, indexed [bit_a][bit_b]."""
    return [[fac[a][i] * fac[b][j] for j in (0, 1)] for i in (0, 1)]


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
    if 0 in field.shape:
        raise ValueError(
            f"trilinear_sample: field {field.shape}, offsets {offsets.shape}: "
            f"no extent may be empty"
        )
    if not np.isfinite(offsets.data).all():
        raise ValueError("trilinear_sample: offsets contain non-finite values")
    c = field.shape[0]
    spatial = field.shape[1:]
    d, h, w = spatial
    n = d * h * w
    dtype = field.dtype
    fdat, odat = field.data, offsets.data
    field_needs, offsets_need = field.requires_grad, offsets.requires_grad
    out = np.zeros((c, n), dtype=dtype)
    base = np.zeros(spatial, dtype=np.int64)
    frac = np.empty((3,) + spatial, dtype=dtype)
    inside = np.empty((3,) + spatial, dtype=bool)
    depth = max(1, SAMPLE_SLAB_VOXELS // (h * w))

    def sample(lo, hi):
        """Depths lo:hi, in slabs of ``depth``."""
        for z0 in range(lo, hi, depth):
            _sample_slab(fdat, odat, z0, min(z0 + depth, hi), out, base, frac, inside)

    ops.side_by_side(lambda: sample(0, d // 2), lambda: sample(d // 2, d),
                     n >= SAMPLE_THREAD_VOXELS and d > 1)

    corners = _corners(spatial)
    flat_base = base.reshape(n)

    def rule(gy):
        gy = gy.reshape(c, n)
        fac = _factors(frac.reshape(3, n))
        # others[ax]: products of the factors of the two axes other than ax
        other_axes = ((1, 2), (0, 2), (0, 1))
        others = [_pair(fac, a, b) for a, b in other_axes]
        field_args = (gy, fdat, flat_base, corners, others[2], fac[2])

        def offset_grad():
            acc = np.zeros((3, c, n), dtype=dtype)
            v = np.empty((c, n), dtype=dtype)
            term = np.empty((c, n), dtype=dtype)
            for bits, s in corners:
                _gather(fdat, flat_base, s, v)
                # derivative w.r.t. each coordinate: difference of the two
                # corner planes along that axis, interpolated over the others
                for ax, (a, b) in enumerate(other_axes):
                    np.multiply(v, others[ax][bits[a]][bits[b]], out=term)
                    if bits[ax]:
                        acc[ax] += term
                    else:
                        acc[ax] -= term
            doff = np.empty((3,) + spatial, dtype=dtype)
            for ax in range(3):
                doff[ax] = (np.sum(gy * acc[ax], axis=0)
                            * inside[ax].reshape(n).astype(dtype)).reshape(spatial)
            return doff

        if not offsets_need:
            return _field_grad(*field_args), None
        if not field_needs:
            return None, offset_grad()
        return ops.side_by_side(lambda: _field_grad(*field_args), offset_grad,
                                gy.size >= ops.BACKWARD_THREAD_VALUES)

    return make_op((field, offsets), out.reshape((c,) + spatial), rule)


def warp(image: Tensor, u: Tensor) -> Tensor:
    """Warp an image by a displacement field: out(p) = I(p + u(p))."""
    return trilinear_sample(image, u)


def compose(a: Tensor, b: Tensor) -> Tensor:
    """Displacement of the composed map a after b: b(p) + a(p + b(p))."""
    if a.shape != b.shape:
        raise ValueError(f"compose: shape mismatch {a.shape} vs {b.shape}")
    return T.add(b, trilinear_sample(a, b))


def integrate(v: Tensor, steps: int = 7) -> Tensor:
    """Exponentiate a stationary velocity field by scaling and squaring:
    halve it ``steps`` times, then self-compose it as often."""
    if not np.isfinite(v.data).all():
        raise ValueError("integrate: velocity field contains non-finite values")
    u = T.scalar_mul(v, 1.0 / float(2 ** steps))
    for _ in range(steps):
        u = compose(u, u)
    return u


def jacobian_determinant(u: np.ndarray):
    """Per-voxel det(I + grad u) and folding statistics.

    Central differences on interior voxels, one-sided at the faces; the
    folding tally covers interior voxels only so analytic affine fixtures are
    exact. Runs in depth slabs of ``SAMPLE_SLAB_VOXELS`` voxels (one depth at
    least), so the (3, 3) Jacobian is never held for the whole volume.
    """
    u = np.asarray(u)
    if u.ndim != 4 or u.shape[0] != 3:
        raise ValueError(f"jacobian_determinant expects (3, D, H, W), got {u.shape}")
    if min(u.shape[1:]) < 3:
        raise ValueError(f"extents {u.shape[1:]} too small for differences")
    d, h, w = u.shape[1:]
    det = np.empty((d, h, w), dtype=np.float64)
    depth = max(1, SAMPLE_SLAB_VOXELS // (h * w))
    for z0 in range(0, d, depth):
        z1 = min(z0 + depth, d)
        # differences over the slab and a one-voxel halo: the same central or
        # one-sided difference at every kept depth as over the whole volume
        lo, hi = max(z0 - 1, 0), min(z1 + 1, d)
        J = np.empty((3, 3, z1 - z0, h, w), dtype=np.float64)
        for i in range(3):
            grads = np.gradient(u[i, lo:hi].astype(np.float64), axis=(0, 1, 2))
            for j in range(3):
                J[i, j] = grads[j][z0 - lo:z1 - lo]
            J[i, i] += 1.0
        det[z0:z1] = (
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
