"""Self-check suites: gradient integrity, oracle equivalence, and
diffeomorphic-integration invariants.

Each check returns (name, passed, detail). Per-op gradient checks are held to
1e-4 relative error at standard precision and 1e-6 at wide precision;
composite graphs (whole blocks, the full tiny model) are held to 1e-4, where
finite-difference truncation through stacked normalizations dominates.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import gaussian_filter

from . import tensor as T
from .cemsa import (SCORE_BLOCK_BYTES, CemsaConfig, bind_cemsa_params, cemsa_block,
                    cemsa_param_shapes, multi_head_attention)
from .deformation import compose, integrate, jacobian_determinant, warp
from .losses import LossConfig, total_loss
from .model import (DeconvParams, ModelConfig, bind_model_params, deconv_upsample,
                    forward, model_param_shapes)
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
COMPOSITE_TOL = 1e-4
ORACLE_TOL = 1e-5
ORACLE_INSTANCES = 20


def _smooth(shape, rng, sigma=1.5, channels=1):
    x = rng.normal(size=(channels,) + shape)
    return gaussian_filter(x, sigma=(0,) + (sigma,) * 3)


def _smooth_offsets(shape, rng, amplitude=0.4, sigma=2.0, bias=0.3):
    v = rng.normal(size=(3,) + shape)
    v = gaussian_filter(v, sigma=(0, sigma, sigma, sigma))
    v = v / np.max(np.abs(v)) * amplitude
    return v + bias


def _op_gradcheck(name, build, leaves, rng_seed=0, coords=6):
    results = []
    for wide, tol in ((False, OP_TOL_STD), (True, OP_TOL_WIDE)):
        rep = grad_check(build, leaves, coords_per_leaf=coords,
                         rng=np.random.default_rng(rng_seed), wide=wide)
        label = "wide" if wide else "std"
        results.append((f"gradcheck.{name}.{label}", rep.max_err() < tol,
                        f"max rel err {rep.max_err():.3e} (tol {tol:g})"))
    return results


def gradcheck_suite():
    checks = []
    rng = np.random.default_rng(20)

    x0 = rng.normal(size=(4, 5))
    y0 = rng.normal(size=(4, 5))
    checks += _op_gradcheck(
        "add_mul",
        lambda lv: T.sum_all(T.mul(T.add(lv["x"], lv["y"]), lv["x"])),
        {"x": x0, "y": y0})
    checks += _op_gradcheck(
        "leaky_relu",
        lambda lv: T.sum_all(T.mul(T.leaky_relu(lv["x"]), lv["x"])),
        {"x": rng.normal(size=12) + 0.05})
    checks += _op_gradcheck(
        "gelu",
        lambda lv: T.sum_all(T.mul(T.gelu(lv["x"]), lv["x"])),
        {"x": rng.normal(size=16)})
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 2))
    checks += _op_gradcheck(
        "matmul",
        lambda lv: T.sum_all(T.mul(T.matmul(lv["a"], lv["b"]),
                                   T.matmul(lv["a"], lv["b"]))),
        {"a": a0, "b": b0})
    mix = rng.normal(size=(3, 6))
    checks += _op_gradcheck(
        "softmax_lastdim",
        lambda lv: T.sum_all(T.mul(T.softmax_lastdim(lv["x"]),
                                   Tensor(mix.astype(lv["x"].dtype)))),
        {"x": rng.normal(size=(3, 6))})
    checks += _op_gradcheck(
        "layer_norm",
        lambda lv: T.mean_all(T.mul(T.layer_norm(lv["x"], lv["g"], lv["b"]),
                                    T.layer_norm(lv["x"], lv["g"], lv["b"]))),
        {"x": rng.normal(size=(4, 8)), "g": rng.normal(size=8),
         "b": rng.normal(size=8)})
    scale = rng.normal(size=(4, 3, 2))
    checks += _op_gradcheck(
        "reshape_permute",
        lambda lv: T.sum_all(T.mul(T.permute(T.reshape(lv["x"], (2, 3, 4)),
                                             (2, 1, 0)),
                                   Tensor(scale.astype(lv["x"].dtype)))),
        {"x": rng.normal(size=24)})

    def conv_energy(lv):  # the group count comes from the weight's shape
        out = conv3d(lv["x"], Conv3dParams(lv["w"], lv["b"]))
        return T.mean_all(T.mul(out, out))

    for groups, tag in ((1, "dense"), (2, "grouped"), (4, "depthwise")):
        leaves = {
            "x": rng.normal(size=(4, 4, 4, 4)),
            "w": rng.normal(size=(4, 4 // groups, 3, 3, 3)) * 0.3,
            "b": rng.normal(size=4) * 0.3,
        }
        checks += _op_gradcheck(f"conv3d_{tag}", conv_energy, leaves, coords=5)

    leaves = {
        "x": rng.normal(size=(2, 6, 6, 6)),
        "w": rng.normal(size=(3, 2, 3, 3, 3)) * 0.3,
        "b": rng.normal(size=3) * 0.3,
    }
    checks += _op_gradcheck(
        "conv3d_stride2",
        lambda lv: T.mean_all(T.mul(conv3d(lv["x"], Conv3dParams(lv["w"], lv["b"], stride=2)),
                                    Tensor(np.ones((3, 3, 3, 3), lv["x"].dtype)))),
        leaves, coords=5)
    leaves = {
        "x": rng.normal(size=(2, 3, 3, 3)),
        "w": rng.normal(size=(2, 2, 2, 2, 2)) * 0.3,
        "b": rng.normal(size=2) * 0.3,
    }

    def upsample(lv):
        out = deconv_upsample(lv["x"], DeconvParams(lv["w"], lv["b"]))
        return T.mean_all(T.mul(out, out))

    checks += _op_gradcheck("deconv_upsample", upsample, leaves, coords=5)
    leaves = {"x": rng.normal(size=(5, 4)), "w": rng.normal(size=(3, 4)),
              "b": rng.normal(size=3)}
    checks += _op_gradcheck(
        "linear",
        lambda lv: T.mean_all(T.mul(linear(lv["x"], LinearParams(lv["w"], lv["b"])),
                                    linear(lv["x"], LinearParams(lv["w"], lv["b"])))),
        leaves)

    img = _smooth((6, 6, 6), rng)
    off = _smooth_offsets((6, 6, 6), rng)
    checks += _op_gradcheck(
        "warp",
        lambda lv: T.mean_all(T.mul(warp(lv["img"], lv["u"]),
                                    warp(lv["img"], lv["u"]))),
        {"img": img, "u": off}, coords=8)
    a = _smooth_offsets((5, 5, 5), rng)
    b = _smooth_offsets((5, 5, 5), rng)
    checks += _op_gradcheck(
        "compose",
        lambda lv: T.mean_all(T.mul(compose(lv["a"], lv["b"]),
                                    compose(lv["a"], lv["b"]))),
        {"a": a, "b": b}, coords=8)
    v = _smooth_offsets((5, 5, 5), rng, amplitude=0.3, bias=0.2)
    checks += _op_gradcheck(
        "integrate",
        lambda lv: T.mean_all(T.mul(integrate(lv["v"], steps=3),
                                    integrate(lv["v"], steps=3))),
        {"v": v}, coords=8)

    checks.append(_attention_row_blocks_check())
    checks.append(_composite_cemsa_block_check())
    checks.append(_total_loss_check())
    checks.extend(_composite_model_check())
    return checks


def _healthy_leaves(shapes, seed):
    """Random parameter draws at an ordinary scale: the training init keeps
    residual-branch weights tiny, so a fresh block is close to the identity
    and hides most of its terms from a finite difference."""
    rng = np.random.default_rng(seed)
    leaves = {}
    for name, (shape, kind) in shapes.items():
        if name.endswith(".gamma"):
            leaves[name] = 1.0 + rng.normal(0, 0.1, size=shape)
        else:
            leaves[name] = rng.normal(0, 0.3, size=shape)
    return leaves


def _attention_row_blocks_check():
    """The fused attention rule, which recomputes each block's probabilities,
    at wide precision: enough keys that each head's rows split into two
    score blocks, the last one ragged."""
    n, heads = 800, 2
    rows = SCORE_BLOCK_BYTES // (n * 8)  # float64 scores
    rng = np.random.default_rng(26)
    leaves = {name: rng.normal(size=(n, 4)) for name in "qkv"}
    mix = rng.normal(size=(n, 4))

    def build(lv):
        out = multi_head_attention(lv["q"], lv["k"], lv["v"], heads)
        return T.sum_all(T.mul(out, Tensor(mix.astype(out.dtype))))

    rep = grad_check(build, leaves, coords_per_leaf=4, rng=np.random.default_rng(5),
                     wide=True)
    blocks = -(-n // rows)
    return ("gradcheck.attention_row_blocks.wide",
            rep.max_err() < OP_TOL_WIDE and blocks > 1 and n % rows > 0,
            f"{n} tokens in {blocks} row blocks of {rows}, "
            f"max rel err {rep.max_err():.3e} (tol {OP_TOL_WIDE:g})")


def _composite_cemsa_block_check():
    cfg = CemsaConfig(dim=8, heads=2, dw_kernel=3, spatial_shape=(3, 3, 3))
    shapes = {f"blk.{k}": v for k, v in cemsa_param_shapes(cfg).items()}
    leaves = _healthy_leaves(shapes, seed=21)
    leaves["x"] = np.random.default_rng(22).normal(size=(27, 8))

    def build(lv):
        out = cemsa_block(lv["x"], cfg, bind_cemsa_params(cfg, "blk", lv))
        return T.mean_all(T.mul(out, out))

    worst = 0.0
    for wide in (False, True):
        rep = grad_check(build, leaves, coords_per_leaf=2,
                         rng=np.random.default_rng(2), wide=wide)
        worst = max(worst, rep.max_err())
    return ("gradcheck.cemsa_block", worst < COMPOSITE_TOL,
            f"max rel err {worst:.3e} (tol {COMPOSITE_TOL:g})")


def _composite_model_check():
    """Scalar loss through every layer of the tiny model.

    The probe is a fixed random linear functional of the predicted field: the
    registration objective itself is kinked wherever a parameter perturbation
    drags a sampling coordinate across a voxel boundary, so the warp/MSE tail
    is differenced separately (see gradcheck.total_loss) with a fixture that
    controls the field directly. The difference step is 1e-5: at a 16-cubed
    scale an eps of 1e-3 reliably pushes some LeakyReLU activation through
    zero, and a one-sided slope is not the model's gradient being wrong.
    """
    cfg = ModelConfig(input_shape=(16, 16, 16), base_dim=8,
                      encoder_depths=(1, 1, 1), decoder_depths=(1, 1, 1))
    leaves = _healthy_leaves(model_param_shapes(cfg), seed=23)
    rng = np.random.default_rng(24)
    moving = gaussian_filter(rng.normal(size=(1, 16, 16, 16)), (0, 2, 2, 2))
    fixed = gaussian_filter(rng.normal(size=(1, 16, 16, 16)), (0, 2, 2, 2))
    mixer = rng.normal(size=(3, 16, 16, 16))

    def build(lv):
        params = bind_model_params(cfg, lv)
        dtype = lv["out.flow.bias"].dtype
        m = Tensor(moving.astype(dtype))
        f = Tensor(fixed.astype(dtype))
        raw = forward(m, f, params, cfg)
        return T.mean_all(T.mul(raw, Tensor(mixer.astype(dtype))))

    results = []
    for wide, tol in ((False, OP_TOL_STD), (True, OP_TOL_WIDE)):
        rep = grad_check(build, leaves, coords_per_leaf=1, eps_scale=1e-5,
                         rng=np.random.default_rng(3), wide=wide)
        label = "wide" if wide else "std"
        results.append((f"gradcheck.full_tiny_model.{label}",
                        rep.max_err() < tol,
                        f"max rel err {rep.max_err():.3e} (tol {tol:g})"))
    return results


def _total_loss_check():
    """Registration objective differenced w.r.t. a mid-cell raw field."""
    rng = np.random.default_rng(25)
    m = gaussian_filter(rng.normal(size=(1, 6, 6, 6)), (0, 1.5, 1.5, 1.5))
    f = gaussian_filter(rng.normal(size=(1, 6, 6, 6)), (0, 1.5, 1.5, 1.5))
    raw = _smooth_offsets((6, 6, 6), rng, amplitude=0.15, bias=0.3)

    def build(lv):
        dtype = lv["raw"].dtype
        loss, *_ = total_loss(Tensor(m.astype(dtype)), Tensor(f.astype(dtype)),
                              lv["raw"], LossConfig(), "diffeomorphic")
        return loss

    worst = 0.0
    for wide in (False, True):
        rep = grad_check(build, {"raw": raw}, coords_per_leaf=8,
                         rng=np.random.default_rng(4), wide=wide)
        worst = max(worst, rep.max_err())
    return ("gradcheck.total_loss", worst < COMPOSITE_TOL,
            f"max rel err {worst:.3e} (tol {COMPOSITE_TOL:g})")


def oracle_suite():
    checks = []
    rng = np.random.default_rng(30)

    worst = 0.0
    for i in range(ORACLE_INSTANCES):
        groups = (1, 2, 4)[i % 3]
        stride = 1 if i % 2 else 2
        x = rng.normal(size=(4, 5, 5, 5))
        w = rng.normal(size=(4, 4 // groups, 3, 3, 3))
        b = rng.normal(size=4)
        out = conv3d(Tensor(x, dtype=np.float64),
                     Conv3dParams(Tensor(w, dtype=np.float64),
                                  Tensor(b, dtype=np.float64), stride))
        ref = conv3d_reference(x, w, b, stride=stride, padding=1, groups=groups)
        worst = max(worst, float(np.max(np.abs(out.data - ref))))
    checks.append(("oracle.conv3d", worst < ORACLE_TOL,
                   f"{ORACLE_INSTANCES} instances, max abs diff {worst:.2e}"))

    # large kernels: a depthwise k=7 conv whose padding is most of its input
    # plane, and a grouped k=5 conv at stride 2
    large_rng = np.random.default_rng(31)
    worst = 0.0
    for cin, cout, groups, k, stride, extents in ((3, 3, 3, 7, 1, (6, 7, 9)),
                                                  (4, 6, 2, 5, 2, (7, 6, 8))):
        x = large_rng.normal(size=(cin,) + extents)
        w = large_rng.normal(size=(cout, cin // groups, k, k, k))
        b = large_rng.normal(size=cout)
        out = conv3d(Tensor(x, dtype=np.float64),
                     Conv3dParams(Tensor(w, dtype=np.float64),
                                  Tensor(b, dtype=np.float64), stride))
        ref = conv3d_reference(x, w, b, stride=stride, padding=k // 2, groups=groups)
        worst = max(worst, float(np.max(np.abs(out.data - ref))))
    checks.append(("oracle.conv3d_large_kernel", worst < ORACLE_TOL,
                   f"depthwise k=7 and grouped k=5 stride 2, max abs diff {worst:.2e}"))

    worst = 0.0
    for i in range(ORACLE_INSTANCES):
        heads = (1, 2, 4)[i % 3]
        n = int(rng.integers(2, 9))
        q = rng.normal(size=(n, 8))
        k = rng.normal(size=(n, 8))
        v = rng.normal(size=(n, 8))
        out = multi_head_attention(Tensor(q, dtype=np.float64),
                                   Tensor(k, dtype=np.float64),
                                   Tensor(v, dtype=np.float64), heads)
        ref = attention_reference(q, k, v, heads)
        worst = max(worst, float(np.max(np.abs(out.data - ref))))
    checks.append(("oracle.attention", worst < ORACLE_TOL,
                   f"{ORACLE_INSTANCES} instances, max abs diff {worst:.2e}"))

    # enough keys that each head's rows split into several score blocks, the
    # last one ragged; the oracle runs on the first and last row of each block
    n, heads = 2304, 2
    rows = SCORE_BLOCK_BYTES // (n * 8)  # float64 scores
    q, k, v = np.random.default_rng(31).normal(size=(3, n, 8))
    out = multi_head_attention(Tensor(q, dtype=np.float64), Tensor(k, dtype=np.float64),
                               Tensor(v, dtype=np.float64), heads)
    probe = np.unique(np.r_[0:n:rows, rows - 1:n:rows, n - 1])
    worst = float(np.max(np.abs(out.data[probe]
                                - attention_reference(q[probe], k, v, heads))))
    blocks = -(-n // rows)
    checks.append(("oracle.attention_row_blocks",
                   worst < ORACLE_TOL and blocks > 1 and n % rows > 0,
                   f"{n} tokens in {blocks} row blocks of {rows}, "
                   f"max abs diff {worst:.2e} on {probe.size} rows"))

    worst = 0.0
    for i in range(ORACLE_INSTANCES):
        img = rng.normal(size=(2, 5, 5, 5))
        off = _smooth_offsets((5, 5, 5), rng, amplitude=1.5, bias=0.0)
        out = warp(Tensor(img, dtype=np.float64), Tensor(off))
        ref = trilinear_reference(img, off)
        worst = max(worst, float(np.max(np.abs(out.data - ref))))
    checks.append(("oracle.warp", worst < ORACLE_TOL,
                   f"{ORACLE_INSTANCES} instances, max abs diff {worst:.2e}"))

    worst = 0.0
    for i in range(ORACLE_INSTANCES):
        a = _smooth_offsets((5, 5, 5), rng, amplitude=0.8, bias=0.0)
        b = _smooth_offsets((5, 5, 5), rng, amplitude=0.8, bias=0.0)
        out = compose(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
        ref = compose_reference(a, b)
        worst = max(worst, float(np.max(np.abs(out.data - ref))))
    checks.append(("oracle.compose", worst < ORACLE_TOL,
                   f"{ORACLE_INSTANCES} instances, max abs diff {worst:.2e}"))

    # ten Adam steps on a random least-squares problem, every iterate compared
    worst = 0.0
    for i in range(ORACLE_INSTANCES):
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
        ref = adam_reference(x0, grad_fn, cfg.lr, ADAM_BETA1, cfg.beta2, ADAM_EPS, steps=10)
        worst = max(worst, float(np.max(np.abs(np.array(traj) - np.array(ref)))))
    checks.append(("oracle.adam", worst < ORACLE_TOL,
                   f"{ORACLE_INSTANCES} instances of 10 steps, max abs diff {worst:.2e}"))

    # the objective's two terms, recomputed from the displacement it warped by
    worst = 0.0
    loss_cfg = LossConfig()
    for i in range(ORACLE_INSTANCES):
        mode = ("displacement", "diffeomorphic")[i % 2]
        moving = rng.normal(size=(1, 5, 5, 5))
        fixed = rng.normal(size=(1, 5, 5, 5))
        raw = _smooth_offsets((5, 5, 5), rng, amplitude=(1.5, 0.5)[i % 2], bias=0.0)
        _, comp, u, _ = total_loss(Tensor(moving), Tensor(fixed), Tensor(raw),
                                   loss_cfg, mode)
        sim = mse_reference(trilinear_reference(moving, u.data), fixed)
        reg = smoothness_reference(u.data)
        errors = (comp["loss_sim"] - sim, comp["loss_reg"] - reg,
                  comp["loss"] - (sim + loss_cfg.lambda_reg * reg))
        worst = max(worst, float(np.max(np.abs(errors))))
    checks.append(("oracle.total_loss", worst < ORACLE_TOL,
                   f"{ORACLE_INSTANCES} instances, both modes, max abs diff {worst:.2e}"))
    return checks


def diffeo_suite():
    checks = []
    rng = np.random.default_rng(40)

    u = integrate(Tensor(np.zeros((3, 8, 8, 8), np.float32)))
    checks.append(("diffeo.zero_velocity", bool(np.all(u.data == 0.0)),
                   f"max |u| = {np.max(np.abs(u.data)):.1e} (exact zero required)"))

    worst = 0.0
    for c in ((0.8, 0, 0), (0, -0.6, 0), (0.3, 0.4, -0.5)):
        v = np.zeros((3, 10, 10, 10))
        for ax in range(3):
            v[ax] = c[ax]
        out = integrate(Tensor(v)).data
        interior = out[:, 2:-2, 2:-2, 2:-2]
        expect = np.asarray(c)[:, None, None, None]
        worst = max(worst, float(np.max(np.abs(interior - expect))))
    checks.append(("diffeo.constant_velocity", worst < 1e-4,
                   f"interior error {worst:.2e} (tol 1e-4)"))

    worst = 0.0
    folded = 0
    for seed in range(3):
        r = np.random.default_rng(100 + seed)
        v = r.normal(size=(3, 12, 12, 12))
        v = gaussian_filter(v, sigma=(0, 3, 3, 3))
        v = v / np.max(np.abs(v)) * 2.0
        fwd = integrate(Tensor(v))
        bwd = integrate(Tensor(-v))
        rt = compose(fwd, bwd).data
        worst = max(worst, float(np.max(np.abs(rt[:, 2:-2, 2:-2, 2:-2]))))
        _, stats = jacobian_determinant(fwd.data)
        folded += stats.count
    checks.append(("diffeo.inverse_consistency", worst < 0.1,
                   f"max interior |fwd o bwd| = {worst:.3f} voxels (tol 0.1)"))
    checks.append(("diffeo.fold_free_integration", folded == 0,
                   f"{folded} folded voxels across 3 smooth fields"))
    return checks


SUITES = {
    "gradcheck": gradcheck_suite,
    "oracles": oracle_suite,
    "diffeo": diffeo_suite,
}


def run_suites(names):
    checks = []
    for name in names:
        checks.extend(SUITES[name]())
    return checks
