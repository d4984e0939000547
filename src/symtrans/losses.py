"""Training objective and evaluation metrics.

The unsupervised registration loss is mean squared intensity error between the
warped moving image and the fixed image, plus a weighted smoothness penalty on
the displacement field (mean squared forward differences). Evaluation uses the
Dice coefficient over warped label maps and folding statistics from the
Jacobian determinant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .configio import finite
from .deformation import integrate, warp
from .tensor import Tensor


@dataclass
class LossConfig:
    lambda_reg: float = 0.02

    def __post_init__(self):
        finite("lambda_reg", self.lambda_reg)
        if self.lambda_reg < 0:
            raise ValueError(f"lambda_reg must be >= 0, got {self.lambda_reg}")


def similarity_loss(warped: Tensor, fixed: Tensor) -> Tensor:
    """Mean squared voxel difference."""
    if warped.shape != fixed.shape:
        raise ValueError(f"similarity_loss: {warped.shape} vs {fixed.shape}")
    d = T.sub(warped, fixed)
    return T.mean_all(T.mul(d, d))


def smoothness_loss(u: Tensor) -> Tensor:
    """Mean squared forward difference of the field, averaged over axes."""
    if u.ndim != 4 or min(u.shape[1:]) < 2:
        raise ValueError(f"smoothness_loss: degenerate field shape {u.shape}")
    terms = []
    for axis in (1, 2, 3):
        ext = u.shape[axis]
        hi = T.narrow(u, axis, 1, ext - 1)
        lo = T.narrow(u, axis, 0, ext - 1)
        d = T.sub(hi, lo)
        terms.append(T.mean_all(T.mul(d, d)))
    total = T.add(T.add(terms[0], terms[1]), terms[2])
    return T.scalar_mul(total, 1.0 / 3.0)


def total_loss(moving: Tensor, fixed: Tensor, raw_field: Tensor,
               cfg: LossConfig, mode: str):
    """Full registration objective.

    Returns (loss, components dict, displacement, warped moving image). In
    displacement mode the raw network output is the displacement; in
    diffeomorphic mode it is a stationary velocity that gets integrated first.
    The smoothness penalty applies to the displacement actually used to warp.
    """
    if mode == "displacement":
        u = raw_field
    elif mode == "diffeomorphic":
        u = integrate(raw_field)
    else:
        raise ValueError(f"unknown registration mode {mode!r}")
    warped = warp(moving, u)
    sim = similarity_loss(warped, fixed)
    reg = smoothness_loss(u)
    loss = T.add(sim, T.scalar_mul(reg, cfg.lambda_reg))
    components = {
        "loss": float(loss.data),
        "loss_sim": float(sim.data),
        "loss_reg": float(reg.data),
    }
    return loss, components, u, warped


def dice(a: np.ndarray, b: np.ndarray):
    """Per-label and mean Dice overlap over the labels present in either map;
    background (0) excluded. A label present in only one map scores 0.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dice: extent mismatch {a.shape} vs {b.shape}")
    labels = sorted(set(np.unique(a)) | set(np.unique(b)))
    per_label = {}
    for lab in [l for l in labels if l > 0]:
        in_a = a == lab
        in_b = b == lab
        denom = int(in_a.sum()) + int(in_b.sum())
        per_label[int(lab)] = 2.0 * int((in_a & in_b).sum()) / denom
    mean = float(np.mean(list(per_label.values()))) if per_label else 0.0
    return per_label, mean


def warp_labels(labels: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Nearest-neighbor label resampling at p + u(p), clamped to the border."""
    labels = np.asarray(labels)
    u = np.asarray(u)
    if labels.shape != u.shape[1:]:
        raise ValueError(f"warp_labels: {labels.shape} vs field {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("warp_labels: field contains non-finite values")
    # the flat index of each voxel's nearest clamped source, one axis at a time
    flat = np.zeros(labels.shape, dtype=np.int64)
    for ax, ext in enumerate(labels.shape):
        grid = np.arange(ext, dtype=np.float64).reshape((-1,) + (1,) * (2 - ax))
        flat *= ext
        flat += np.clip(np.rint(grid + u[ax]), 0, ext - 1).astype(np.int64)
    return np.take(labels, flat)


def metrics_report(u: np.ndarray, loss_components: dict | None = None,
                   moving_labels: np.ndarray | None = None,
                   fixed_labels: np.ndarray | None = None) -> dict:
    """Bundle the metric JSON payload emitted by evaluation commands."""
    from .deformation import jacobian_determinant

    _, stats = jacobian_determinant(u)
    report = {
        "folding_count": stats.count,
        "folding_fraction": stats.fraction,
    }
    if moving_labels is not None and fixed_labels is not None:
        warped = warp_labels(moving_labels, u)
        per_label, mean = dice(warped, fixed_labels)
        report["dsc_mean"] = mean
        report["dsc_per_label"] = {str(k): v for k, v in sorted(per_label.items())}
    if loss_components:
        report.update(loss_components)
    return report
