"""3D convolutions (grouped, which covers dense and depthwise) and linear
layers.

Convolutions are computed by direct loops over kernel offsets, vectorized over
voxels, so the accumulation order is fixed and results are deterministic.
``conv3d``'s forward reads each offset's input as contiguous runs (a shift of
the flat padded grid, or a per-W-tap copy when padding dominates the plane);
its dx scatters each offset's contraction into one run of the flat padded
grid, and its dw reads strided windows. ``conv3d`` has one formulation for
every group count; the only branch left is the depthwise weight gradient,
which keeps numpy's pairwise voxel sum. Its kernel is a cube of odd extent
k, padded by k // 2 (same padding), and its group count comes from the
shapes, so its only geometry setting is the stride. Volumes are
channel-first (C, D, H, W); tokens are (N, dim).

The affinity rule: when the process may run on more than one CPU
(``usable_cpus``, its ``os.sched_getaffinity`` mask; there is no option),
the process keeps one worker thread, ``_WORKER``, and no other module
reads it. ``conv3d``'s backward hands its dw loop to it when it has a dx
to compute, and returns the job's ``Future`` as the weight's gradient; the
calling thread computes dx meanwhile. ``Tensor.backward`` waits for the job
where it accumulates a computed weight's gradient, and at the end of the
walk for a leaf weight's, which no later rule reads. Every other hand-off
is a ``side_by_side`` call, which returns only after its job has stopped:
``deformation.trilinear_sample`` runs half of its forward's depth slabs
there on large volumes, and its field scatter beside the offset gradient.
Backward work goes to the worker from ``BACKWARD_THREAD_VALUES`` gradient
values, forward work from the caller's own gate. Each loop is the same with
or without the worker, so results are byte-identical whatever the CPU count.
The worker runs raw numpy only, never a traced op. conv3d's forward always
runs on the calling thread. ``training`` applies the same rule to its pair
producer, a one-process pool.
"""

from __future__ import annotations

import itertools
import os
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, add_rowvec, make_op, matmul, transpose2d

# Bytes one depth slab of the flat-grid forward's accumulator may hold.
GRID_SLAB_BYTES = 1 << 18

# Gradient values below which a backward rule (conv3d's dw, trilinear_sample's
# field scatter) runs inline rather than on the worker: under it the calls
# are too short to gain from the second core and lose time to handing the
# GIL back and forth.
BACKWARD_THREAD_VALUES = 1 << 15


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _start_worker():
    """The one worker thread, if this process may run on more than one CPU.
    numpy's einsum, ufunc and take loops release the GIL, so a job on the
    worker runs while the calling thread goes on. The thread starts with the
    first job, not at import. A forked child starts its own: the parent's
    thread does not exist there.
    """
    global _WORKER
    _WORKER = (futures.ThreadPoolExecutor(1, thread_name_prefix="symtrans-worker")
               if usable_cpus() > 1 else None)


_start_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_worker)


def side_by_side(job, own_job, threaded):
    """``(job(), own_job())``: ``job`` on the worker while this thread runs
    ``own_job`` when ``threaded`` and the process has a worker, else both
    here, ``job`` first. The job is waited for on every exit path, so
    ``own_job``'s error, or else the job's, is raised only after it stopped.
    """
    if _WORKER is None or not threaded:
        return job(), own_job()
    future = _WORKER.submit(job)
    try:
        own = own_job()
    finally:
        futures.wait((future,))
    return future.result(), own


@dataclass
class Conv3dParams:
    """Weight (out_ch, in_ch/groups, k, k, k) with k odd, bias (out_ch,),
    and the stride. The padding is k // 2, and the group count is
    in_ch // weight.shape[1]."""

    weight: Tensor
    bias: Tensor
    stride: int = 1


@dataclass
class LinearParams:
    weight: Tensor  # (out_dim, in_dim)
    bias: Tensor  # (out_dim,)


def _validate_conv(x: Tensor, p: Conv3dParams):
    """(out_ch, k, groups, output extents) of a same-padded conv3d."""
    if x.ndim != 4 or not all(x.shape[1:]):
        raise ValueError(f"conv3d expects (C, D, H, W) with no empty extent, got {x.shape}")
    shape = p.weight.shape
    if len(shape) != 5 or not shape[2] == shape[3] == shape[4] or shape[2] % 2 == 0:
        raise ValueError(f"conv3d: weight shape {shape} is not (out, in/groups, k, k, k) "
                         "with k odd")
    out_ch, in_per_group, k = shape[:3]
    cin = x.shape[0]
    groups = cin // max(in_per_group, 1)
    if groups < 1 or groups * in_per_group != cin or out_ch % groups:
        raise ValueError(f"conv3d: weight shape {shape} does not split {cin} input and "
                         f"{out_ch} output channels into groups of {in_per_group} inputs")
    if p.bias.shape != (out_ch,):
        raise ValueError(f"conv3d: bias shape {p.bias.shape} != ({out_ch},)")
    return out_ch, k, groups, tuple(-(-e // p.stride) for e in x.shape[1:])


def _forward_w_copies(xg, wg, b, out_spatial):
    """Stride-1 forward for heavy padding: one contiguous copy per W tap.

    Copy c holds ``xg[..., c:c + Wo]`` as (G, C/G, Dp, Hp*Wo), so the window
    of tap (a, b, c) is one run of Ho*Wo values per output depth, and the
    taps accumulate straight into the output.
    """
    groups, per_group, dp, hp, _ = xg.shape
    k = wg.shape[-1]
    do, ho, wo = out_spatial
    copies = [np.ascontiguousarray(xg[..., c:c + wo]).reshape(
        groups, per_group, dp, hp * wo) for c in range(k)]
    out = np.empty((b.shape[0], do, ho, wo), dtype=xg.dtype)
    out[:] = b[:, None, None, None]
    outg = out.reshape((groups, -1, do, ho * wo))
    for a, bb, c in itertools.product(range(k), repeat=3):
        window = copies[c][:, :, a:a + do, bb * wo:(bb + ho) * wo]
        outg += np.einsum("goi,gidr->godr", wg[..., a, bb, c], window)
    return out


def _forward_flat(xp, wg, b, st, out_spatial):
    """Forward with every tap as one unit-stride shift of the flat padded grid.

    At stride s the padded input is split once into s**3 phase copies; tap
    (a, b, c) then reads phase (a % s, b % s, c % s) shifted by
    (a // s, b // s, c // s). The taps accumulate on the phase grid's
    (Hq, Wq) plane in slabs of output depth of at most GRID_SLAB_BYTES (one
    depth at least), and each slab is cropped to (Ho, Wo); the positions
    outside are computed and dropped.
    """
    groups, per_out = wg.shape[:2]
    k = wg.shape[-1]
    do, ho, wo = out_spatial
    if st == 1:
        phases = xp[None]
    else:
        grid = tuple(-(-e // st) for e in xp.shape[1:])
        phases = np.zeros((st ** 3, xp.shape[0]) + grid, dtype=xp.dtype)
        for i, (rd, rh, rw) in enumerate(itertools.product(range(st), repeat=3)):
            part = xp[:, rd::st, rh::st, rw::st]
            _, pd, ph, pw = part.shape
            phases[i, :, :pd, :ph, :pw] = part
    hq, wq = phases.shape[-2:]
    plane = hq * wq
    flat = phases.reshape((st ** 3, groups, -1, phases.shape[2] * plane))
    out = np.empty((groups * per_out, do, ho, wo), dtype=xp.dtype)
    slab = max(1, GRID_SLAB_BYTES // (out.shape[0] * plane * out.itemsize))
    for z0 in range(0, do, slab):
        nz = min(slab, do - z0)
        span = (nz - 1) * plane + (ho - 1) * wq + wo
        acc = np.empty((groups, per_out, nz * plane), dtype=xp.dtype)
        acc[:] = b.reshape(groups, per_out, 1)
        run = acc[..., :span]
        for a, bb, c in itertools.product(range(k), repeat=3):
            phase = ((a % st) * st + bb % st) * st + c % st
            start = (z0 + a // st) * plane + (bb // st) * wq + c // st
            run += np.einsum("goi,gis->gos", wg[..., a, bb, c],
                             flat[phase, :, :, start:start + span])
        out[:, z0:z0 + nz] = acc.reshape(-1, nz, hq, wq)[:, :, :ho, :wo]
    return out


def _weight_grad(dwg, gyg, xg, taps):
    """dw of conv3d: one contraction of gy with each tap's window, over voxels."""
    depthwise = dwg.shape[1] == dwg.shape[2] == 1
    for (a, bb, c), sl in taps:
        if depthwise:
            # Pairwise summation over the voxels, not einsum's sequential
            # one: float32 dw moves by up to 2e-5 otherwise, which alone
            # takes the A3 desk run from DSC 0.839 to 0.793.
            dwg[:, 0, 0, a, bb, c] = (gyg[:, 0] * xg[sl][:, 0]).sum(axis=(1, 2, 3))
        else:
            dwg[..., a, bb, c] = np.einsum("godhw,gidhw->goi", gyg, xg[sl])


def _input_grad(gyg, wg, st, grid_shape):
    """dx of conv3d on the padded grid ``grid_shape``, each tap scattering
    w^T gy into one unit-stride run of the flat grid.

    gy is laid out on the (Hq, Wq) plane of the grid (of its phase grid at
    stride s, split as in ``_forward_flat``) with zeros at the positions
    outside (Ho, Wo). A zero adds nothing to a sum, so every position gets
    the contributions of the strided windows, in (a, b, c) order.
    """
    groups, per_out, do, ho, wo = gyg.shape
    k = wg.shape[-1]
    dq, hq, wq = (-(-e // st) for e in grid_shape[1:])
    plane = hq * wq
    gyf = np.zeros((groups, per_out, do, hq, wq), dtype=gyg.dtype)
    gyf[..., :ho, :wo] = gyg
    span = (do - 1) * plane + (ho - 1) * wq + wo
    run = gyf.reshape((groups, per_out, -1))[..., :span]
    dphases = np.zeros((st ** 3, groups, wg.shape[2], dq * plane), dtype=gyg.dtype)
    for a, bb, c in itertools.product(range(k), repeat=3):
        phase = ((a % st) * st + bb % st) * st + c % st
        start = (a // st) * plane + (bb // st) * wq + c // st
        dphases[phase, ..., start:start + span] += np.einsum(
            "goi,gos->gis", wg[..., a, bb, c], run)
    dphases = dphases.reshape((st ** 3, grid_shape[0], dq, hq, wq))
    if st == 1:
        return dphases[0]
    dxp = np.empty(grid_shape, dtype=gyg.dtype)
    for i, (rd, rh, rw) in enumerate(itertools.product(range(st), repeat=3)):
        part = dxp[:, rd::st, rh::st, rw::st]
        part[...] = dphases[i, :, :part.shape[1], :part.shape[2], :part.shape[3]]
    return dxp


def conv3d(x: Tensor, p: Conv3dParams) -> Tensor:
    """Grouped 3-D convolution; output group g sees only input group g.

    Dense (groups 1) and depthwise (groups == channels) are the two ends of
    one formulation: x, weight and output are viewed as (G, C/G, ...) and
    every kernel offset contracts the per-group channel axis. Each output
    element is the bias plus one such contraction per tap, added in (a, b, c)
    order; the geometry only picks the memory layout the taps read from.
    The input is padded by k // 2, so each output extent is
    ceil(extent / stride).
    """
    out_ch, k, groups, (do, ho, wo) = _validate_conv(x, p)
    st, pad = p.stride, k // 2
    w, b = p.weight.data, p.bias.data
    needs_dx = x.requires_grad  # a flag, not a Tensor, for the rule
    wg = w.reshape((groups, out_ch // groups) + w.shape[1:])  # (G, O, I, k, k, k)
    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad), (pad, pad)))
    xg = xp.reshape((groups, -1) + xp.shape[1:])
    if st == 1 and xp.shape[2] * xp.shape[3] > 2 * ho * wo:
        out = _forward_w_copies(xg, wg, b, (do, ho, wo))
    else:
        out = _forward_flat(xp, wg, b, st, (do, ho, wo))

    def rule(gy):
        gyg = gy.reshape((groups, -1, do, ho, wo))
        # taps: the (G, C/G, D, H, W) window each offset (a, b, c) read
        taps = [((a, bb, c), (slice(None), slice(None), slice(a, a + st * do, st),
                              slice(bb, bb + st * ho, st), slice(c, c + st * wo, st)))
                for a, bb, c in itertools.product(range(k), repeat=3)]

        def weight_grad():
            dw = np.zeros_like(w)
            _weight_grad(dw.reshape(wg.shape), gyg, xg, taps)
            return dw

        def input_grad():
            if not needs_dx:  # e.g. the stem's conv of the input pair
                return None
            dxp = _input_grad(gyg, wg, st, xp.shape)
            return dxp[:, pad:-pad, pad:-pad, pad:-pad] if pad else dxp

        db = gy.sum(axis=(1, 2, 3))
        # dw goes to the worker while this thread computes dx and walks on.
        # With no dx there is nothing to overlap here, and such a conv (on a
        # constant input) comes at the end of the walk, where a deferred dw
        # would only lengthen the final wait.
        if _WORKER is None or gy.size < BACKWARD_THREAD_VALUES or not needs_dx:
            return input_grad(), weight_grad(), db
        dw = _WORKER.submit(weight_grad)
        try:
            return input_grad(), dw, db
        except BaseException:
            futures.wait((dw,))  # no caller sees the rule end while dw writes
            raise

    return make_op((x, p.weight, p.bias), out, rule)


def linear(x: Tensor, p: LinearParams) -> Tensor:
    """Per-token affine map: x @ W.T + b for x of shape (tokens, in_dim)."""
    if x.ndim != 2 or x.shape[1] != p.weight.shape[1]:
        raise ValueError(
            f"linear: input {x.shape} incompatible with weight {p.weight.shape}"
        )
    return add_rowvec(matmul(x, transpose2d(p.weight)), p.bias)
