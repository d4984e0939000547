#!/usr/bin/env python3
"""Warping, composition, and scaling-and-squaring integration.

A displacement field u maps p to p + u(p); warping pulls intensities back
through trilinear interpolation. A stationary velocity field v is turned into
a diffeomorphic displacement by halving it T times and self-composing T times
(T = 7, the model's fixed count and ``integrate``'s default), and the Jacobian
determinant tells us whether any voxel folded.
"""

import numpy as np
from scipy.ndimage import gaussian_filter

from symtrans.deformation import compose, integrate, jacobian_determinant, warp
from symtrans.tensor import Tensor

shape = (24, 24, 24)
rng = np.random.default_rng(0)

# a smooth blob image
grid = np.indices(shape).astype(np.float64)
r2 = sum((grid[i] - 12) ** 2 for i in range(3))
image = np.exp(-r2 / 40).astype(np.float32)[None]

# integer shifts are exact (away from the clamped border)
shift = np.zeros((3,) + shape, np.float32)
shift[2] = 2.0
shifted = warp(Tensor(image), Tensor(shift)).data
print("integer shift exact:",
      np.allclose(shifted[0, :, :, :-2], image[0, :, :, 2:], atol=1e-6))

# a smooth random velocity field, capped at 2 voxels
v = gaussian_filter(rng.normal(size=(3,) + shape), (0, 4, 4, 4))
v = (v / np.max(np.abs(v)) * 2.0).astype(np.float32)

u = integrate(Tensor(v), steps=7)
det, stats = jacobian_determinant(u.data)
print(f"integrated field: max |u| = {np.abs(u.data).max():.2f} voxels, "
      f"folding count = {stats.count} of {stats.interior_voxels} interior voxels")
print(f"det range on the interior: [{det[1:-1,1:-1,1:-1].min():.3f}, "
      f"{det[1:-1,1:-1,1:-1].max():.3f}]")

# the inverse map comes from integrating -v; composing the two should be
# close to the identity
u_inv = integrate(Tensor(-v), steps=7)
round_trip = compose(u, u_inv).data
print(f"inverse consistency: max interior |u o u_inv| = "
      f"{np.abs(round_trip[:, 2:-2, 2:-2, 2:-2]).max():.4f} voxels")

# contrast: use the raw velocity directly as a displacement, scaled up until
# it folds, and watch the integrated version stay diffeomorphic
for scale in (2.0, 6.0, 10.0):
    raw = (v * scale / 2.0).astype(np.float32)
    _, raw_stats = jacobian_determinant(raw)
    u_s = integrate(Tensor(raw), steps=7)
    _, int_stats = jacobian_determinant(u_s.data)
    print(f"max|field| {scale:>4.1f}: raw displacement folds "
          f"{raw_stats.count:>5} voxels, integrated folds {int_stats.count:>3}")
