"""3D convolutions (grouped, which covers dense and depthwise) and linear
layers.

Convolutions are computed by direct loops over kernel offsets, vectorized over
voxels, so the accumulation order is fixed and results are deterministic.
``conv3d``'s forward and its dx run one tap walk, which reads each offset's
window as contiguous runs (a shift of the flat padded grid, or a per-W-tap
copy when padding dominates the plane). dx walks gy with the transposed
weights, each tap reading its window mirrored and each input phase at
stride s filled as one of the walk's output phases; it gathers, and nothing
is scattered. dw reads strided windows, the depthwise one from per-W-tap
copies of x. ``conv3d`` has one formulation for every group count; the only
branch left is the depthwise weight gradient, which keeps numpy's pairwise
voxel sum. Its kernel is a cube of odd extent k, padded by k // 2 (same
padding), and its group count comes from the shapes, so its only geometry
setting is the stride. Volumes are channel-first (C, D, H, W); tokens are
(N, dim).

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
there on large volumes, and its field scatter beside the offset gradient;
``cemsa.multi_head_attention`` normalises each score block there while the
caller computes the next block's scores and the previous block's product
with V. Backward work goes to the worker from ``BACKWARD_THREAD_VALUES``
gradient values, forward work from the caller's own gate
(``deformation.SAMPLE_THREAD_VOXELS``, ``cemsa.ATTENTION_THREAD_SCORES``).
Each loop is the same with or without the worker, so results are
byte-identical whatever the CPU count.
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

# Bytes a depth slab of the flat-grid walk's accumulator comes nearest to.
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


def _padded(a, pads):
    """``a`` zero-padded by (before, after) on each of its last three axes
    (np.pad, without its per-call overhead)."""
    (dl, dh), (hl, hh), (wl, wh) = pads
    if not (dl or dh or hl or hh or wl or wh):
        return a
    *lead, d, h, w = a.shape
    out = np.zeros((*lead, dl + d + dh, hl + h + hh, wl + w + wh), dtype=a.dtype)
    out[..., dl:dl + d, hl:hl + h, wl:wl + w] = a
    return out


def _walk_w_copies(grids, mats, taps, init, outs):
    """The tap walk for heavy padding: one contiguous copy per W shift.

    ``grids`` (S, S, S, G, C, Dq, Hq, Wq) holds one grid per input phase,
    ``mats`` (k, k, k, G, O, C) one matrix per kernel index, and ``outs``
    maps each output phase (qd, qh, qw) to the (G*O, Do, Ho, Wo) array it
    fills. ``taps[q]`` lists, in order, the taps of an axis that reach its
    output phase q, each as (kernel index, input phase, shift); the kernel is
    a cube, so every axis has the one table. Output phase (qd, qh, qw) gets
    ``init`` plus, for each tap (a, b, c) of the product of ``taps[qd]``,
    ``taps[qh]`` and ``taps[qw]`` in order, ``mats[a, b, c]`` times the grid
    of the tap's input phases shifted by its shifts. The layout rule picks
    this walk at stride 1 only, so it reads the one grid and fills the one
    output, C-ordered. Copy c holds the grid from W shift c on, ``Wo`` wide, as
    (G, C, Dq, Hq*Wo), so each window is one run of Ho*Wo values per output
    depth, and the taps accumulate straight into the output.
    """
    ((qd, qh, qw), out), = outs.items()
    _, do, ho, wo = out.shape
    grid = grids[0, 0, 0]
    # one contiguous matrix per tap: on these short runs einsum walks a
    # strided one up to twice as slowly
    mats = np.ascontiguousarray(mats)
    copies = {c: np.ascontiguousarray(grid[..., c:c + wo]).reshape(grid.shape[:3] + (-1,))
              for _, _, c in taps[qw]}
    out[:] = init[:, None, None, None]
    outg = out.reshape((grid.shape[0], -1, do, ho * wo))
    for (a, _, d), (b, _, h), (c, _, w) in itertools.product(taps[qd], taps[qh], taps[qw]):
        window = copies[w][:, :, d:d + do, h * wo:(h + ho) * wo]
        outg += np.einsum("goi,gidr->godr", mats[a, b, c], window)


def _walk_flat(grids, mats, taps, init, outs):
    """The tap walk with every tap as one unit-stride shift of a flat grid.

    Fills ``outs``, whose arrays may be strided views, as ``_walk_w_copies``
    does: a tap shifted by (d, h, w) reads its grid flattened from (d, h, w)
    on. The taps accumulate on the grids' (Hq, Wq) plane, every output
    phase in one accumulator, in slabs of output depth: as many equal ones
    as bring a phase's slab nearest GRID_SLAB_BYTES (one depth at least).
    Each slab is cropped to its phase's (Ho, Wo); the positions outside are
    computed and dropped.
    """
    groups, hq, wq = grids.shape[3], grids.shape[6], grids.shape[7]
    plane = hq * wq
    flat = grids.reshape(grids.shape[:5] + (-1,))
    channels, do = max(out.shape[:2] for out in outs.values())
    slabs = round(do * channels * plane * init.itemsize / GRID_SLAB_BYTES)
    slab = -(-do // min(max(slabs, 1), do))
    for z0 in range(0, do, slab):
        nz = min(slab, do - z0)
        acc = np.empty((len(outs), groups, channels // groups, nz * plane), dtype=init.dtype)
        acc[:] = init.reshape(groups, -1, 1)
        for part, ((qd, qh, qw), out) in zip(acc, outs.items()):
            _, od, oh, ow = out.shape
            if od <= z0:
                continue
            run = part[..., :(min(nz, od - z0) - 1) * plane + (oh - 1) * wq + ow]
            for (a, ra, d), (b, rb, h), (c, rc, w) in itertools.product(taps[qd], taps[qh],
                                                                        taps[qw]):
                start = (z0 + d) * plane + h * wq + w
                run += np.einsum("goi,gis->gos", mats[a, b, c],
                                 flat[ra, rb, rc, :, :, start:start + run.shape[-1]])
            out[:, z0:z0 + nz] = part.reshape(-1, nz, hq, wq)[:, :od - z0, :oh, :ow]


def _phase_grids(xp, st):
    """The padded input split into its phases, (st, st, st, C, Dq, Hq, Wq):
    phase (rd, rh, rw) holds ``xp[:, rd::st, rh::st, rw::st]``, zero-filled
    to the first phase's extents."""
    if st == 1:
        return xp[None, None, None]
    grid = tuple(-(-e // st) for e in xp.shape[1:])
    phases = np.zeros((st, st, st, xp.shape[0]) + grid, dtype=xp.dtype)
    for rd, rh, rw in itertools.product(range(st), repeat=3):
        part = xp[:, rd::st, rh::st, rw::st]
        _, pd, ph, pw = part.shape
        phases[rd, rh, rw, :, :pd, :ph, :pw] = part
    return phases


def _weight_grad(dwg, gyg, xg, st):
    """dw of conv3d: one contraction of gy with each tap's window, over voxels.

    The depthwise one reads its windows from one contiguous copy of x per W
    tap, as the per-W-tap walk does, and keeps numpy's pairwise voxel sum.
    """
    k = dwg.shape[-1]
    do, ho, wo = gyg.shape[2:]
    depthwise = dwg.shape[1] == dwg.shape[2] == 1
    for c in range(k):
        cols = xg[..., c:c + st * wo:st]
        if depthwise:
            cols = np.ascontiguousarray(cols)
        for a, bb in itertools.product(range(k), repeat=2):
            window = cols[:, :, a:a + st * do:st, bb:bb + st * ho:st]
            if depthwise:
                # Pairwise summation over the voxels, not einsum's sequential
                # one: float32 dw moves by up to 2e-5 otherwise, which alone
                # takes the A3 desk run from DSC 0.839 to 0.793.
                dwg[:, 0, 0, a, bb, c] = (gyg[:, 0] * window[:, 0]).sum(axis=(1, 2, 3))
            else:
                dwg[..., a, bb, c] = np.einsum("godhw,gidhw->goi", gyg, window)


def _dx_walk(gyg, wg, st, spatial, walk):
    """dx of conv3d: the forward's tap walk over gy, the input's phases as
    its output phases.

    gy is padded by pad // st before and by what the last window needs
    after. Along an axis, input position st * m + r gets w^T gy from each tap
    a with a = r + pad (mod st), at gy position m + (r + pad - a) // st. So
    one unit-stride walk over the padded gy, with the taps' transposed
    weights, fills each input phase r as its own output phase; at stride 1
    tap a reads the window mirrored at k - 1 - a. The taps run in (a, b, c)
    order from a zero accumulator, and a zero of the padding adds nothing,
    so each position sums the same terms in the same order as scattering
    every tap's w^T gy onto its window. A phase that no tap reaches (k < st)
    stays zero.
    """
    groups, _, *out_spatial = gyg.shape
    k = wg.shape[-1]
    pad = k // 2
    lo = pad // st
    gyp = _padded(gyg, [(lo, (e - 1 + pad) // st - o + 1)
                        for e, o in zip(spatial, out_spatial)])[None, None, None]
    wt = wg.transpose(3, 4, 5, 0, 2, 1)  # each tap's w^T, (G, I, O)
    dx = (np.empty if st == 1 else np.zeros)((groups * wt.shape[4],) + tuple(spatial),
                                             dtype=gyg.dtype)
    # along an axis, tap a reaches the input positions of phase
    # r = (a - pad) % st, from the padded gy shifted by (r + pad - a) // st
    taps = {}
    for a in range(k):
        r = (a - pad) % st
        taps.setdefault(r, []).append((a, 0, (r + pad - a) // st + lo))
    outs = {(rd, rh, rw): dx[:, rd::st, rh::st, rw::st]
            for rd, rh, rw in itertools.product(sorted(taps), repeat=3)
            if rd < spatial[0] and rh < spatial[1] and rw < spatial[2]}
    walk(gyp, wt, taps, np.zeros(dx.shape[0], dtype=dx.dtype), outs)
    return dx


def conv3d(x: Tensor, p: Conv3dParams) -> Tensor:
    """Grouped 3-D convolution; output group g sees only input group g.

    Dense (groups 1) and depthwise (groups == channels) are the two ends of
    one formulation: x, weight and output are viewed as (G, C/G, ...) and
    every kernel offset contracts the per-group channel axis. Each output
    element is the bias plus one such contraction per tap, added in (a, b, c)
    order; the geometry only picks the memory layout the taps read from.
    The input is padded by k // 2, so each output extent is
    ceil(extent / stride).

    The forward and dx run one tap walk, in the layout the forward's
    geometry picks: per-W-tap copies at stride 1 when the padded (H, W)
    plane is more than twice the output plane, and flat runs otherwise. At
    stride s the forward reads tap (a, b, c) from phase (a % s, b % s, c % s)
    of the padded input, shifted by (a // s, b // s, c // s).
    """
    out_ch, k, groups, (do, ho, wo) = _validate_conv(x, p)
    st, pad = p.stride, k // 2
    w, b = p.weight.data, p.bias.data
    spatial = x.shape[1:]
    needs_dx = x.requires_grad  # a flag, not a Tensor, for the rule
    wg = w.reshape((groups, out_ch // groups) + w.shape[1:])  # (G, O, I, k, k, k)
    xp = _padded(x.data, [(pad, pad)] * 3)
    xg = xp.reshape((groups, -1) + xp.shape[1:])
    walk = (_walk_w_copies if st == 1 and xp.shape[2] * xp.shape[3] > 2 * ho * wo
            else _walk_flat)
    grids = _phase_grids(xp, st)
    # tap a of an axis reads phase a % st of the input, shifted by a // st
    taps = {0: [(a, a % st, a // st) for a in range(k)]}
    out = np.empty((out_ch, do, ho, wo), dtype=x.dtype)
    walk(grids.reshape(grids.shape[:3] + (groups, -1) + grids.shape[4:]),
         wg.transpose(3, 4, 5, 0, 1, 2), taps, b, {(0, 0, 0): out})

    def rule(gy):
        gyg = gy.reshape((groups, -1, do, ho, wo))

        def weight_grad():
            dw = np.zeros_like(w)
            _weight_grad(dw.reshape(wg.shape), gyg, xg, st)
            return dw

        def input_grad():
            if not needs_dx:  # e.g. the stem's conv of the input pair
                return None
            return _dx_walk(gyg, wg, st, spatial, walk)

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
