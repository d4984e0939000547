"""Self-check suites: gradient integrity, oracle equivalence, and
diffeomorphic-integration invariants.

``SUITES`` is one table of checks. Each ``Check`` gives its name, its
tolerance and a function that draws every input, and every probed coordinate,
from one ``np.random.Generator`` and returns the check's error and a detail
line. ``run_checks`` seeds that Generator from the check's name alone, so no
check's inputs depend on another check or on its place in the table: adding
or deleting a check moves no other check's numbers. A check passes when its
error is at most its tolerance.

Every gradient check, from one op to the full tiny model, is held to one
pair of tolerances: 1e-4 relative error at standard precision and 1e-6 at
wide precision. Each differences at ``grad_check``'s default step of 1e-4,
where the central difference's truncation stays below 1e-7 even through a
CEMSA block's stacked normalizations; only the full tiny model takes a step
of its own (1e-7, for its LeakyReLU kinks).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from scipy.ndimage import gaussian_filter

from . import tensor as T
from .cemsa import (SCORE_BLOCK_BYTES, CemsaConfig, bind_cemsa_params, cemsa_block,
                    cemsa_param_shapes, multi_head_attention)
from .deformation import compose, integrate, jacobian_determinant, warp
from .losses import LossConfig, total_loss
from .model import (DeconvParams, ExpandParams, ModelConfig, bind_model_params,
                    deconv_upsample, forward, model_param_shapes, patch_expand)
from .ops import Conv3dParams, LinearParams, conv3d, linear
from .oracles import (
    adam_reference,
    attention_reference,
    compose_reference,
    conv3d_reference,
    mse_reference,
    smoothness_reference,
    trilinear_reference,
)
from .tensor import Tensor, grad_check
from .training import ADAM_BETA1, ADAM_EPS, TrainConfig, adam_step, init_adam

OP_TOL_STD = 1e-4
OP_TOL_WIDE = 1e-6
ORACLE_TOL = 1e-5
ORACLE_INSTANCES = 20

# (tag, (cin, cout, groups, k, stride, extents)): a depthwise k=7 conv whose
# padding is most of its input plane, and a grouped k=5 conv at stride 2. The
# A2 oracle checks their forward; A1 checks dx, which reads mirrored windows (a
# per-W-tap walk for the depthwise k=7) and fills each input phase at stride 2
# as its own output phase.
_LARGE_KERNELS = (("depthwise_k7", (3, 3, 3, 7, 1, (6, 7, 9))),
                  ("grouped_k5_stride2", (4, 6, 2, 5, 2, (7, 6, 8))))


class Check(NamedTuple):
    name: str
    tol: float
    measure: Callable[[np.random.Generator], tuple[float, str]]


def run_checks(checks):
    """(name, passed, detail) of each check, run on a Generator seeded from
    its name."""
    results = []
    for check in checks:
        error, detail = check.measure(np.random.default_rng(list(check.name.encode())))
        results.append((check.name, bool(error <= check.tol),
                        f"{detail} (tol {check.tol:g})"))
    return results


def _smooth(shape, rng, sigma=1.5):
    return gaussian_filter(rng.normal(size=(1,) + shape), sigma=(0,) + (sigma,) * 3)


def _smooth_offsets(shape, rng, amplitude=0.4, sigma=2.0, bias=0.3):
    v = rng.normal(size=(3,) + shape)
    v = gaussian_filter(v, sigma=(0, sigma, sigma, sigma))
    v = v / np.max(np.abs(v)) * amplitude
    return v + bias


def _energy(out):
    return T.mean_all(T.mul(out, out))


def _score_blocks(n):
    """Rows per float64 score block at ``n`` keys, the block count, and
    whether the rows split into several blocks with a ragged last one."""
    rows = SCORE_BLOCK_BYTES // (n * 8)
    blocks = -(-n // rows)
    return rows, blocks, blocks > 1 and n % rows > 0


# --- A1: gradient checks ---------------------------------------------------------
# Each case draws its inputs from the check's Generator and returns
# (build, leaves); grad_check then picks the probed coordinates from the same
# Generator.

def _gradcheck_pair(name, case, coords=6, **step):
    """The ``.std`` and ``.wide`` entries of one gradcheck; ``step`` holds
    ``grad_check``'s ``eps_scale`` for the one graph that needs its own."""
    def entry(wide, tol):
        def measure(rng):
            build, leaves = case(rng)
            err = grad_check(build, leaves, coords_per_leaf=coords, rng=rng, wide=wide,
                             **step)
            return err, f"max rel err {err:.3e}"
        return Check(f"gradcheck.{name}.{'wide' if wide else 'std'}", tol, measure)
    return entry(False, OP_TOL_STD), entry(True, OP_TOL_WIDE)


def _healthy_leaves(shapes, rng):
    """Random parameter draws at an ordinary scale: the training init keeps
    residual-branch weights tiny, so a fresh block is close to the identity
    and hides most of its terms from a finite difference."""
    leaves = {}
    for name, (shape, _) in shapes.items():
        if name.endswith(".gamma"):
            leaves[name] = 1.0 + rng.normal(0, 0.1, size=shape)
        else:
            leaves[name] = rng.normal(0, 0.3, size=shape)
    return leaves


def _add_mul(rng):
    return (lambda lv: T.sum_all(T.mul(T.add(lv["x"], lv["y"]), lv["x"])),
            {"x": rng.normal(size=(4, 5)), "y": rng.normal(size=(4, 5))})


def _leaky_relu(rng):
    return (lambda lv: T.sum_all(T.mul(T.leaky_relu(lv["x"]), lv["x"])),
            {"x": rng.normal(size=12) + 0.05})


def _gelu(rng):
    return (lambda lv: T.sum_all(T.mul(T.gelu(lv["x"]), lv["x"])),
            {"x": rng.normal(size=16)})


def _matmul(rng):
    return (lambda lv: T.sum_all(T.mul(T.matmul(lv["a"], lv["b"]),
                                       T.matmul(lv["a"], lv["b"]))),
            {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))})


def _layer_norm(rng):
    return (lambda lv: _energy(T.layer_norm(lv["x"], lv["g"], lv["b"])),
            {"x": rng.normal(size=(4, 8)), "g": rng.normal(size=8),
             "b": rng.normal(size=8)})


def _reshape_permute(rng):
    scale = rng.normal(size=(4, 3, 2))
    return (lambda lv: T.sum_all(T.mul(T.permute(T.reshape(lv["x"], (2, 3, 4)), (2, 1, 0)),
                                       Tensor(scale.astype(lv["x"].dtype)))),
            {"x": rng.normal(size=24)})


def _conv(cin, cout, groups, k, stride, extents, w_scale=0.3, reduce=_energy):
    """A conv3d case; its group count comes from the weight's shape."""
    def case(rng):
        leaves = {"x": rng.normal(size=(cin,) + extents),
                  "w": rng.normal(size=(cout, cin // groups, k, k, k)) * w_scale,
                  "b": rng.normal(size=cout) * 0.3}
        return (lambda lv: reduce(conv3d(lv["x"], Conv3dParams(lv["w"], lv["b"], stride))),
                leaves)
    return case


def _deconv_upsample(rng):
    return (lambda lv: _energy(deconv_upsample(lv["x"], DeconvParams(lv["w"], lv["b"]))),
            {"x": rng.normal(size=(2, 3, 3, 3)),
             "w": rng.normal(size=(2, 2, 2, 2, 2)) * 0.3,
             "b": rng.normal(size=2) * 0.3})


def _patch_expand(rng):
    """Token upsampling on a 2x2x2 grid; its norm slot is the decoder's, and
    patch_expand does not read it."""
    def build(lv):
        p = ExpandParams(lin1=LinearParams(lv["w1"], lv["b1"]),
                         lin2=LinearParams(lv["w2"], lv["b2"]), norm=None)
        return _energy(patch_expand(lv["x"], (2, 2, 2), p))
    return build, {"x": rng.normal(size=(8, 4)),
                   "w1": rng.normal(size=(8, 4)) * 0.4, "b1": rng.normal(size=8) * 0.1,
                   "w2": rng.normal(size=(2, 1)) * 0.4, "b2": rng.normal(size=2) * 0.1}


def _linear(rng):
    return (lambda lv: _energy(linear(lv["x"], LinearParams(lv["w"], lv["b"]))),
            {"x": rng.normal(size=(5, 4)), "w": rng.normal(size=(3, 4)),
             "b": rng.normal(size=3)})


def _warp(rng):
    return (lambda lv: _energy(warp(lv["img"], lv["u"])),
            {"img": _smooth((6, 6, 6), rng), "u": _smooth_offsets((6, 6, 6), rng)})


def _compose(rng):
    return (lambda lv: _energy(compose(lv["a"], lv["b"])),
            {"a": _smooth_offsets((5, 5, 5), rng), "b": _smooth_offsets((5, 5, 5), rng)})


def _integrate(rng):
    return (lambda lv: _energy(integrate(lv["v"], steps=3)),
            {"v": _smooth_offsets((5, 5, 5), rng, amplitude=0.3, bias=0.2)})


def _attention_row_blocks_grad(rng):
    """The fused attention rule, which recomputes each block's probabilities,
    at wide precision: enough keys that each head's rows split into two
    score blocks, the last one ragged."""
    n, heads = 800, 2
    rows, blocks, split = _score_blocks(n)
    leaves = {name: rng.normal(size=(n, 4)) for name in "qkv"}
    mix = rng.normal(size=(n, 4))

    def build(lv):
        out = multi_head_attention(lv["q"], lv["k"], lv["v"], heads)
        return T.sum_all(T.mul(out, Tensor(mix.astype(out.dtype))))

    err = grad_check(build, leaves, coords_per_leaf=6, rng=rng, wide=True)
    return (err if split else np.inf,
            f"{n} tokens in {blocks} row blocks of {rows}, max rel err {err:.3e}")


def _cemsa_block(rng):
    cfg = CemsaConfig(dim=8, heads=2, dw_kernel=3, spatial_shape=(3, 3, 3))
    leaves = _healthy_leaves({f"blk.{k}": v for k, v in cemsa_param_shapes(cfg).items()}, rng)
    leaves["x"] = rng.normal(size=(27, 8))
    return (lambda lv: _energy(cemsa_block(lv["x"], cfg, bind_cemsa_params(cfg, "blk", lv))),
            leaves)


def _total_loss(rng):
    """Registration objective differenced w.r.t. a mid-cell raw field."""
    m, f = _smooth((6, 6, 6), rng), _smooth((6, 6, 6), rng)
    raw = _smooth_offsets((6, 6, 6), rng, amplitude=0.15, bias=0.3)

    def build(lv):
        dtype = lv["raw"].dtype
        loss, *_ = total_loss(Tensor(m.astype(dtype)), Tensor(f.astype(dtype)),
                              lv["raw"], LossConfig(), "diffeomorphic")
        return loss
    return build, {"raw": raw}


def _full_tiny_model(rng):
    """Scalar loss through every layer of the tiny model.

    The probe is a fixed random linear functional of the predicted field: the
    registration objective itself is kinked wherever a parameter perturbation
    drags a sampling coordinate across a voxel boundary, so the warp/MSE tail
    is differenced separately (see gradcheck.total_loss) with a fixture that
    controls the field directly. The difference step is 1e-7: a bias or gain
    shifts thousands of LeakyReLU inputs, so a larger step pushes some of them
    through zero, and a one-sided slope is not the model's gradient being
    wrong. Over 20 independent draws the wide check exceeded 1e-6 on 8 at an
    eps of 1e-5, on 1 at 1e-6 and on none at 1e-7 (worst 1.1e-9).
    """
    cfg = ModelConfig(input_shape=(16, 16, 16), base_dim=8,
                      encoder_depths=(1, 1, 1), decoder_depths=(1, 1, 1))
    leaves = _healthy_leaves(model_param_shapes(cfg), rng)
    moving = _smooth((16, 16, 16), rng, sigma=2)
    fixed = _smooth((16, 16, 16), rng, sigma=2)
    mixer = rng.normal(size=(3, 16, 16, 16))

    def build(lv):
        dtype = lv["out.flow.bias"].dtype
        raw = forward(Tensor(moving.astype(dtype)), Tensor(fixed.astype(dtype)),
                      bind_model_params(cfg, lv), cfg)
        return T.mean_all(T.mul(raw, Tensor(mixer.astype(dtype))))
    return build, leaves


# --- A2: brute-force oracles ---------------------------------------------------

def _instances(diff, what=""):
    """An oracle check over ``ORACLE_INSTANCES`` instances: ``diff(rng, i)``
    draws instance ``i`` and returns its max abs diff from the oracle."""
    def measure(rng):
        worst = max(diff(rng, i) for i in range(ORACLE_INSTANCES))
        return worst, f"{ORACLE_INSTANCES} instances{what}, max abs diff {worst:.2e}"
    return measure


def _max_diff(out, ref):
    return float(np.max(np.abs(np.asarray(out) - np.asarray(ref))))


def _conv_vs_reference(rng, cin, cout, groups, k, stride, extents):
    x = rng.normal(size=(cin,) + extents)
    w = rng.normal(size=(cout, cin // groups, k, k, k))
    b = rng.normal(size=cout)
    out = conv3d(Tensor(x, dtype=np.float64),
                 Conv3dParams(Tensor(w, dtype=np.float64), Tensor(b, dtype=np.float64),
                              stride))
    return _max_diff(out.data, conv3d_reference(x, w, b, stride=stride, padding=k // 2,
                                                groups=groups))


def _conv3d_instance(rng, i):
    return _conv_vs_reference(rng, 4, 4, (1, 2, 4)[i % 3], 3, 1 if i % 2 else 2, (5, 5, 5))


def _oracle_conv3d_large_kernel(rng):
    worst = max(_conv_vs_reference(rng, *geometry) for _, geometry in _LARGE_KERNELS)
    return worst, f"depthwise k=7 and grouped k=5 stride 2, max abs diff {worst:.2e}"


def _attention_instance(rng, i):
    heads = (1, 2, 4)[i % 3]
    q, k, v = rng.normal(size=(3, int(rng.integers(2, 9)), 8))
    out = multi_head_attention(Tensor(q, dtype=np.float64), Tensor(k, dtype=np.float64),
                               Tensor(v, dtype=np.float64), heads)
    return _max_diff(out.data, attention_reference(q, k, v, heads))


def _oracle_attention_row_blocks(rng):
    """Enough keys that each head's rows split into several score blocks, the
    last one ragged; the oracle runs on the first and last row of each block."""
    n, heads = 2304, 2
    rows, blocks, split = _score_blocks(n)
    q, k, v = rng.normal(size=(3, n, 8))
    out = multi_head_attention(Tensor(q, dtype=np.float64), Tensor(k, dtype=np.float64),
                               Tensor(v, dtype=np.float64), heads)
    probe = np.unique(np.r_[0:n:rows, rows - 1:n:rows, n - 1])
    worst = _max_diff(out.data[probe], attention_reference(q[probe], k, v, heads))
    return (worst if split else np.inf,
            f"{n} tokens in {blocks} row blocks of {rows}, "
            f"max abs diff {worst:.2e} on {probe.size} rows")


def _warp_instance(rng, i):
    img = rng.normal(size=(2, 5, 5, 5))
    off = _smooth_offsets((5, 5, 5), rng, amplitude=1.5, bias=0.0)
    out = warp(Tensor(img, dtype=np.float64), Tensor(off))
    return _max_diff(out.data, trilinear_reference(img, off))


def _compose_instance(rng, i):
    a = _smooth_offsets((5, 5, 5), rng, amplitude=0.8, bias=0.0)
    b = _smooth_offsets((5, 5, 5), rng, amplitude=0.8, bias=0.0)
    out = compose(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
    return _max_diff(out.data, compose_reference(a, b))


def _adam_instance(rng, i):
    """Ten Adam steps on a random least-squares problem, every iterate
    compared."""
    cfg = TrainConfig(lr=(5e-2, 1e-3)[i % 2], beta2=(0.999, 0.99)[i // 2 % 2])
    m = rng.normal(size=(4, 6))
    y = rng.normal(size=4)
    x0 = rng.normal(size=6)

    def grad_fn(x):
        return m.T @ (m @ x - y)

    params = {"x": Tensor(x0, requires_grad=True, dtype=np.float64)}
    state = init_adam(params)
    traj = [params["x"].data]
    for _ in range(10):
        params["x"].grad = grad_fn(params["x"].data)
        adam_step(params, state, cfg)
        traj.append(params["x"].data)
    return _max_diff(traj, adam_reference(x0, grad_fn, cfg.lr, ADAM_BETA1, cfg.beta2,
                                          ADAM_EPS, steps=10))


def _total_loss_instance(rng, i):
    """The objective's two terms, recomputed from the displacement it warped
    by."""
    loss_cfg = LossConfig()
    moving = rng.normal(size=(1, 5, 5, 5))
    fixed = rng.normal(size=(1, 5, 5, 5))
    raw = _smooth_offsets((5, 5, 5), rng, amplitude=(1.5, 0.5)[i % 2], bias=0.0)
    _, comp, u, _ = total_loss(Tensor(moving), Tensor(fixed), Tensor(raw), loss_cfg,
                               ("displacement", "diffeomorphic")[i % 2])
    sim = mse_reference(trilinear_reference(moving, u.data), fixed)
    reg = smoothness_reference(u.data)
    return _max_diff((comp["loss_sim"], comp["loss_reg"], comp["loss"]),
                     (sim, reg, sim + loss_cfg.lambda_reg * reg))


# --- diffeomorphic integration ---------------------------------------------------

def _zero_velocity(rng):
    u = integrate(Tensor(np.zeros((3, 8, 8, 8), np.float32)))
    err = float(np.max(np.abs(u.data)))
    return err, f"max |u| = {err:.1e}"


def _constant_velocity(rng):
    worst = 0.0
    for c in ((0.8, 0, 0), (0, -0.6, 0), (0.3, 0.4, -0.5)):
        expect = np.asarray(c, np.float64)[:, None, None, None]
        out = integrate(Tensor(np.ones((3, 10, 10, 10)) * expect)).data
        worst = max(worst, float(np.max(np.abs(out[:, 2:-2, 2:-2, 2:-2] - expect))))
    return worst, f"interior error {worst:.2e}"


def _smooth_velocities(rng):
    """Three smooth velocity fields that peak at 2 voxels."""
    return [_smooth_offsets((12, 12, 12), rng, amplitude=2.0, sigma=3.0, bias=0.0)
            for _ in range(3)]


def _inverse_consistency(rng):
    worst = 0.0
    for v in _smooth_velocities(rng):
        rt = compose(integrate(Tensor(v)), integrate(Tensor(-v))).data
        worst = max(worst, float(np.max(np.abs(rt[:, 2:-2, 2:-2, 2:-2]))))
    return worst, f"max interior |fwd o bwd| = {worst:.3f} voxels"


def _fold_free_integration(rng):
    folded = sum(jacobian_determinant(integrate(Tensor(v)).data)[1].count
                 for v in _smooth_velocities(rng))
    return folded, f"{folded} folded voxels across 3 smooth fields"


SUITES = {
    "gradcheck": (
        *_gradcheck_pair("add_mul", _add_mul),
        *_gradcheck_pair("leaky_relu", _leaky_relu),
        *_gradcheck_pair("gelu", _gelu, coords=16),
        *_gradcheck_pair("matmul", _matmul),
        *_gradcheck_pair("layer_norm", _layer_norm),
        *_gradcheck_pair("reshape_permute", _reshape_permute),
        *_gradcheck_pair("conv3d_dense", _conv(4, 4, 1, 3, 1, (4, 4, 4))),
        *_gradcheck_pair("conv3d_grouped", _conv(4, 4, 2, 3, 1, (4, 4, 4))),
        *_gradcheck_pair("conv3d_depthwise", _conv(4, 4, 4, 3, 1, (4, 4, 4))),
        *_gradcheck_pair("conv3d_stride2", _conv(2, 3, 1, 3, 2, (6, 6, 6), reduce=T.mean_all),
                         coords=5),
        *_gradcheck_pair("deconv_upsample", _deconv_upsample, coords=5),
        *_gradcheck_pair("patch_expand", _patch_expand),
        *_gradcheck_pair("linear", _linear),
        *_gradcheck_pair("warp", _warp, coords=8),
        *_gradcheck_pair("compose", _compose, coords=8),
        *_gradcheck_pair("integrate", _integrate, coords=8),
        Check("gradcheck.attention_row_blocks.wide", OP_TOL_WIDE, _attention_row_blocks_grad),
        *_gradcheck_pair("cemsa_block", _cemsa_block, coords=3),
        *_gradcheck_pair("total_loss", _total_loss, coords=8),
        *_gradcheck_pair("full_tiny_model", _full_tiny_model, coords=1, eps_scale=1e-7),
        *(check for tag, geometry in _LARGE_KERNELS
          for check in _gradcheck_pair(f"conv3d_large_{tag}",
                                       _conv(*geometry, w_scale=1 / geometry[3]), coords=5)),
    ),
    "oracles": (
        Check("oracle.conv3d", ORACLE_TOL, _instances(_conv3d_instance)),
        Check("oracle.conv3d_large_kernel", ORACLE_TOL, _oracle_conv3d_large_kernel),
        Check("oracle.attention", ORACLE_TOL, _instances(_attention_instance)),
        Check("oracle.attention_row_blocks", ORACLE_TOL, _oracle_attention_row_blocks),
        Check("oracle.warp", ORACLE_TOL, _instances(_warp_instance)),
        Check("oracle.compose", ORACLE_TOL, _instances(_compose_instance)),
        Check("oracle.adam", ORACLE_TOL, _instances(_adam_instance, " of 10 steps")),
        Check("oracle.total_loss", ORACLE_TOL,
              _instances(_total_loss_instance, ", both modes")),
    ),
    "diffeo": (
        Check("diffeo.zero_velocity", 0.0, _zero_velocity),
        Check("diffeo.constant_velocity", 1e-4, _constant_velocity),
        Check("diffeo.inverse_consistency", 0.1, _inverse_consistency),
        Check("diffeo.fold_free_integration", 0.0, _fold_free_integration),
    ),
}
