import gc
import itertools
import multiprocessing
import threading
import time
import weakref

import numpy as np
import pytest

from symtrans import ops
from symtrans import tensor as T
from symtrans.cemsa import CemsaConfig, cemsa_param_shapes
from symtrans.ops import (
    Conv3dParams,
    LinearParams,
    conv3d,
    conv3d_output_extent,
    linear,
)
from symtrans.oracles import conv3d_reference


def t(data, grad=False, wide=False):
    return T.Tensor(np.asarray(data), requires_grad=grad,
                    dtype=T.WIDE if wide else T.STANDARD)


def test_identity_kernel_k1():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4, 4, 4)).astype(np.float32)
    w = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1, 1)
    out = conv3d(t(x), Conv3dParams(t(w), t(np.zeros(3, np.float32))))
    np.testing.assert_array_equal(out.data, x)


def test_output_extent_formula():
    assert conv3d_output_extent(24, 3, 2, 1) == 12
    rng = np.random.default_rng(1)
    x = t(rng.normal(size=(1, 24, 24, 24)))
    p = Conv3dParams(t(rng.normal(size=(2, 1, 3, 3, 3))), t(np.zeros(2)),
                     stride=2, padding=1)
    assert conv3d(x, p).shape == (2, 12, 12, 12)


@pytest.mark.parametrize("groups", [1, 2])
def test_conv3d_vs_nested_loop_oracle(groups):
    rng = np.random.default_rng(2 + groups)
    x = rng.normal(size=(2, 5, 5, 5))
    w = rng.normal(size=(4, 2 // groups, 3, 3, 3))
    b = rng.normal(size=4)
    out = conv3d(t(x, wide=True),
                 Conv3dParams(t(w, wide=True), t(b, wide=True),
                              stride=1, padding=1, groups=groups))
    expect = conv3d_reference(x, w, b, stride=1, padding=1, groups=groups)
    assert np.max(np.abs(out.data - expect)) < 1e-5


def test_conv3d_stride2_vs_oracle():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 6, 6, 6))
    w = rng.normal(size=(2, 3, 3, 3, 3))
    b = rng.normal(size=2)
    out = conv3d(t(x, wide=True),
                 Conv3dParams(t(w, wide=True), t(b, wide=True), stride=2, padding=1))
    expect = conv3d_reference(x, w, b, stride=2, padding=1)
    assert np.max(np.abs(out.data - expect)) < 1e-5


def windowed_einsum_conv3d(x, w, b, stride, padding, groups):
    """conv3d's forward as one einsum over a strided 3-D window per offset.

    This is the formulation whose bytes conv3d keeps: the bias, then one
    contraction over the group's input channels per tap in (a, b, c) order.
    """
    out_ch, k = w.shape[0], w.shape[2]
    wg = w.reshape((groups, out_ch // groups) + w.shape[1:])
    xp = np.pad(x, ((0, 0),) + ((padding, padding),) * 3)
    xg = xp.reshape((groups, -1) + xp.shape[1:])
    do, ho, wo = (conv3d_output_extent(e, k, stride, padding) for e in x.shape[1:])
    out = np.empty((out_ch, do, ho, wo), dtype=x.dtype)
    out[:] = b[:, None, None, None]
    outg = out.reshape((groups, -1, do, ho, wo))
    for a, bb, c in itertools.product(range(k), repeat=3):
        window = xg[:, :, a:a + stride * do:stride, bb:bb + stride * ho:stride,
                    c:c + stride * wo:stride]
        outg += np.einsum("goi,gidhw->godhw", wg[..., a, bb, c], window)
    return out


# (in, out, groups, k, stride, padding, extents, layout). The forward copies
# the input once per W tap at stride 1 when the padded (H, W) plane is more
# than twice the output plane, and otherwise shifts over the flat padded grid.
FORWARD_GEOMETRIES = [
    (8, 8, 8, 15, 1, 7, (16, 16, 16), "w_copies"),  # the 64^3 stage-1 trunk
    (3, 4, 1, 3, 1, 1, (9, 10, 11), "flat"),
    (16, 16, 16, 7, 1, 3, (8, 8, 8), "w_copies"),
    (4, 4, 1, 3, 1, 1, (4, 4, 4), "w_copies"),
    (2, 2, 2, 5, 1, 2, (5, 9, 7), "w_copies"),
    (6, 3, 3, 5, 1, 1, (8, 9, 10), "w_copies"),
    (5, 5, 5, 3, 1, 0, (7, 9, 11), "flat"),
    (2, 4, 2, 1, 1, 0, (5, 6, 7), "flat"),
    (4, 6, 2, 5, 2, 2, (9, 7, 11), "flat"),
    (6, 6, 6, 3, 2, 1, (7, 10, 5), "flat"),
    (4, 2, 2, 7, 2, 3, (11, 9, 13), "flat"),
    (3, 3, 3, 15, 2, 7, (9, 12, 10), "flat"),
    (4, 8, 1, 3, 2, 1, (13, 11, 9), "flat"),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("geometry", FORWARD_GEOMETRIES,
                         ids=lambda g: f"k{g[3]}s{g[4]}g{g[2]}-{g[7]}")
def test_conv3d_forward_bytes_equal_windowed_einsum(geometry, dtype, monkeypatch):
    cin, cout, groups, k, stride, padding, extents, layout = geometry
    rng = np.random.default_rng(k * 100 + stride * 10 + groups)
    x = rng.normal(size=(cin,) + extents).astype(dtype)
    w = rng.normal(size=(cout, cin // groups, k, k, k)).astype(dtype)
    b = rng.normal(size=cout).astype(dtype)
    seen = []

    def spy(name):
        inner = getattr(ops, name)

        def counted(*args):
            seen.append(name)
            return inner(*args)
        return counted

    monkeypatch.setattr(ops, "_forward_w_copies", spy("_forward_w_copies"))
    monkeypatch.setattr(ops, "_forward_flat", spy("_forward_flat"))
    out = conv3d(T.Tensor(x, dtype=dtype),
                 Conv3dParams(T.Tensor(w, dtype=dtype), T.Tensor(b, dtype=dtype),
                              stride=stride, padding=padding, groups=groups))
    assert seen == [f"_forward_{layout}"]
    expect = windowed_einsum_conv3d(x, w, b, stride, padding, groups)
    assert out.data.dtype == expect.dtype and out.data.shape == expect.shape
    assert out.data.flags.c_contiguous
    assert out.data.tobytes() == expect.tobytes()


def test_conv3d_forward_bytes_hold_across_depth_slabs(monkeypatch):
    # a slab budget of one plane makes every output depth its own slab
    monkeypatch.setattr(ops, "GRID_SLAB_BYTES", 1)
    rng = np.random.default_rng(40)
    for stride in (1, 2):
        x = rng.normal(size=(4, 9, 10, 11)).astype(np.float32)
        w = rng.normal(size=(6, 2, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=6).astype(np.float32)
        out = conv3d(T.Tensor(x), Conv3dParams(T.Tensor(w), T.Tensor(b), stride=stride,
                                               padding=1, groups=2))
        expect = windowed_einsum_conv3d(x, w, b, stride, 1, 2)
        assert out.data.tobytes() == expect.tobytes()


def windowed_einsum_conv3d_grads(x, w, gy, stride, padding, groups):
    """conv3d's backward as one loop over the taps, dw and dx interleaved.

    dw is one contraction of gy with each tap's strided window (the depthwise
    one a pairwise voxel sum), dx adds w^T gy into that window on the padded
    grid; these are the bytes conv3d's rule keeps, wherever its loops run.
    """
    out_ch, k = w.shape[0], w.shape[2]
    wg = w.reshape((groups, out_ch // groups) + w.shape[1:])
    xp = np.pad(x, ((0, 0),) + ((padding, padding),) * 3)
    xg = xp.reshape((groups, -1) + xp.shape[1:])
    gyg = gy.reshape((groups, -1) + gy.shape[1:])
    do, ho, wo = gy.shape[1:]
    dwg = np.zeros_like(wg)
    dxg = np.zeros_like(xg)
    for a, bb, c in itertools.product(range(k), repeat=3):
        sl = (slice(None), slice(None), slice(a, a + stride * do, stride),
              slice(bb, bb + stride * ho, stride), slice(c, c + stride * wo, stride))
        if wg.shape[1] == wg.shape[2] == 1:
            dwg[:, 0, 0, a, bb, c] = (gyg[:, 0] * xg[sl][:, 0]).sum(axis=(1, 2, 3))
        else:
            dwg[..., a, bb, c] = np.einsum("godhw,gidhw->goi", gyg, xg[sl])
        dxg[sl] += np.einsum("goi,godhw->gidhw", wg[..., a, bb, c], gyg)
    dxp = dxg.reshape(xp.shape)
    dx = dxp[:, padding:-padding, padding:-padding, padding:-padding] if padding else dxp
    return dx, dwg.reshape(w.shape), gy.sum(axis=(1, 2, 3))


def conv3d_rule_grads(x, w, b, gy, stride, padding, groups):
    """(dx, dw, db) that ``backward`` gives conv3d's leaves when the rule is
    handed the output gradient gy."""
    leaves = [T.Tensor(v, requires_grad=True, dtype=v.dtype) for v in (x, w, b)]
    out = conv3d(leaves[0], Conv3dParams(leaves[1], leaves[2], stride=stride,
                                         padding=padding, groups=groups))
    assert out.shape == gy.shape
    T.sum_all(T.mul(out, T.Tensor(gy, dtype=gy.dtype))).backward()  # hands the rule exactly gy
    return tuple(leaf.grad for leaf in leaves)


def spy_on_thread(monkeypatch, name, ran_on):
    """Record, per call of ops.<name>, whether it ran on the main thread."""
    inner = getattr(ops, name)

    def spy(*args):
        ran_on.append(threading.current_thread() is threading.main_thread())
        return inner(*args)

    monkeypatch.setattr(ops, name, spy)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("geometry", FORWARD_GEOMETRIES,
                         ids=lambda g: f"k{g[3]}s{g[4]}g{g[2]}-{g[7]}")
def test_conv3d_backward_bytes_do_not_depend_on_the_worker(geometry, dtype,
                                                           threaded_backward, monkeypatch):
    cin, cout, groups, k, stride, padding, extents, _ = geometry
    rng = np.random.default_rng(k * 100 + stride * 10 + groups + 1)
    x = rng.normal(size=(cin,) + extents).astype(dtype)
    w = rng.normal(size=(cout, cin // groups, k, k, k)).astype(dtype)
    b = rng.normal(size=cout).astype(dtype)
    extents_out = tuple(conv3d_output_extent(e, k, stride, padding) for e in extents)
    gy = rng.normal(size=(cout,) + extents_out).astype(dtype)
    ran_on = []
    spy_on_thread(monkeypatch, "_weight_grad", ran_on)
    threaded = conv3d_rule_grads(x, w, b, gy, stride, padding, groups)
    monkeypatch.setattr(ops, "_WORKER", None)
    inline = conv3d_rule_grads(x, w, b, gy, stride, padding, groups)
    assert ran_on == [False, True]
    expect = windowed_einsum_conv3d_grads(x, w, gy, stride, padding, groups)
    for got_threaded, got_inline, want in zip(threaded, inline, expect):
        assert got_threaded.dtype == got_inline.dtype == want.dtype
        assert got_threaded.shape == got_inline.shape == want.shape
        assert got_threaded.tobytes() == got_inline.tobytes() == want.tobytes()


def test_conv3d_backward_runs_small_ops_inline(worker, monkeypatch):
    ran_on = []
    spy_on_thread(monkeypatch, "_weight_grad", ran_on)
    rng = np.random.default_rng(41)
    w = rng.normal(size=(1, 1, 1, 1, 1)).astype(np.float32)
    b = np.zeros(1, np.float32)
    for values in (ops.BACKWARD_THREAD_VALUES - 1, ops.BACKWARD_THREAD_VALUES):
        x = rng.normal(size=(1, 1, 1, values)).astype(np.float32)
        conv3d_rule_grads(x, w, b, np.ones_like(x), 1, 0, 1)
    assert ran_on == [True, False]


def test_conv3d_backward_skips_dx_of_a_constant_input(threaded_backward, monkeypatch):
    # the stem's first conv reads concat(moving, fixed), which needs no
    # gradient; with no dx to overlap, its dw stays on the calling thread
    dx_ran, dw_ran_here = [], []
    spy_on_thread(monkeypatch, "_input_grad", dx_ran)
    spy_on_thread(monkeypatch, "_weight_grad", dw_ran_here)
    rng = np.random.default_rng(45)
    weight = T.Tensor(rng.normal(size=(4, 2, 3, 3, 3)).astype(np.float32), requires_grad=True)
    x = rng.normal(size=(2, 6, 6, 6)).astype(np.float32)
    grads = []
    for requires_grad in (False, True):
        out = conv3d(T.Tensor(x, requires_grad=requires_grad),
                     Conv3dParams(weight, T.Tensor(np.zeros(4, np.float32)), padding=1))
        weight.grad = None
        T.sum_all(out).backward()
        grads.append(weight.grad)
    assert len(dx_ran) == 1
    assert dw_ran_here == [True, False]
    assert grads[0].tobytes() == grads[1].tobytes()


def test_conv3d_backward_keeps_the_dw_of_a_computed_weight_inline(threaded_backward):
    # backward takes a deferred gradient only for a leaf
    rng = np.random.default_rng(46)
    x = rng.normal(size=(2, 6, 6, 6)).astype(np.float32)
    w = rng.normal(size=(3, 2, 3, 3, 3)).astype(np.float32)
    grads = []
    for computed in (False, True):
        leaf = T.Tensor(w, requires_grad=True)
        weight = T.scalar_mul(leaf, 1.0) if computed else leaf
        out = conv3d(T.Tensor(x, requires_grad=True),
                     Conv3dParams(weight, T.Tensor(np.zeros(3, np.float32)), padding=1))
        T.sum_all(out).backward()
        grads.append(leaf.grad)
    assert grads[0].tobytes() == grads[1].tobytes()


def conv_loss(rng):
    """A loss over one 2->2 channel conv at 6^3."""
    x = T.Tensor(rng.normal(size=(2, 6, 6, 6)).astype(np.float32), requires_grad=True)
    w = rng.normal(size=(2, 2, 3, 3, 3)).astype(np.float32)
    out = conv3d(x, Conv3dParams(T.Tensor(w, requires_grad=True),
                                 T.Tensor(np.zeros(2, np.float32)), padding=1))
    return T.sum_all(out)


def test_conv3d_backward_worker_error_reaches_the_caller(threaded_backward, monkeypatch):
    stopped = threading.Event()

    def exhausted(*args):
        time.sleep(0.05)
        stopped.set()
        raise MemoryError("Unable to allocate 1.0 GiB for an array")

    monkeypatch.setattr(ops, "_weight_grad", exhausted)
    loss = conv_loss(np.random.default_rng(42))
    with pytest.raises(MemoryError, match="1.0 GiB"):
        loss.backward()
    assert stopped.is_set()


def test_conv3d_backward_joins_the_worker_before_reraising(threaded_backward, monkeypatch):
    # dx fails on the calling thread while dw still runs on the worker: the
    # rule must not hand its error, or control, back while the worker writes
    started, finished = threading.Event(), threading.Event()
    weight_grad = ops._weight_grad

    def slow(*args):
        started.set()
        time.sleep(0.2)
        weight_grad(*args)
        finished.set()

    def failing(*args):
        assert started.wait(5)
        raise FloatingPointError("dx failed")

    monkeypatch.setattr(ops, "_weight_grad", slow)
    monkeypatch.setattr(ops, "_input_grad", failing)
    loss = conv_loss(np.random.default_rng(43))
    with pytest.raises(FloatingPointError, match="dx failed"):
        loss.backward()
    assert finished.is_set()


def _threaded_backward_in_child(x, w, b, gy, expect, done):
    # runs in a forked child, whose copy of the parent's worker has no thread
    got = conv3d_rule_grads(x, w, b, gy, 1, 1, 1)
    done.value = all(g.tobytes() == e.tobytes() for g, e in zip(got, expect))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork")
def test_conv3d_backward_works_in_a_forked_child(threaded_backward):
    rng = np.random.default_rng(44)
    x = rng.normal(size=(2, 6, 6, 6)).astype(np.float32)
    w = rng.normal(size=(3, 2, 3, 3, 3)).astype(np.float32)
    b = np.zeros(3, np.float32)
    gy = rng.normal(size=(3, 6, 6, 6)).astype(np.float32)
    expect = conv3d_rule_grads(x, w, b, gy, 1, 1, 1)  # the worker thread is running
    ctx = multiprocessing.get_context("fork")
    done = ctx.Value("b", 0)
    child = ctx.Process(target=_threaded_backward_in_child, args=(x, w, b, gy, expect, done))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0 and done.value


def test_conv3d_channel_group_mismatch():
    x = t(np.zeros((3, 4, 4, 4)))
    p = Conv3dParams(t(np.zeros((4, 1, 1, 1, 1))), t(np.zeros(4)), groups=2)
    with pytest.raises(ValueError, match="groups"):
        conv3d(x, p)


@pytest.mark.parametrize("wide", ["weight", "bias"])
def test_conv3d_refuses_mixed_precisions(wide):
    x = T.Tensor(np.zeros((2, 4, 4, 4), np.float32))
    w = np.zeros((2, 2, 3, 3, 3), np.float64 if wide == "weight" else np.float32)
    b = np.zeros(2, np.float64 if wide == "bias" else np.float32)
    p = Conv3dParams(T.Tensor(w, requires_grad=True), T.Tensor(b, requires_grad=True))
    with pytest.raises(TypeError, match="mixed precisions: float32 vs float64"):
        conv3d(x, p)


def test_conv3d_collapsed_output_rejected():
    x = t(np.zeros((1, 2, 2, 2)))
    p = Conv3dParams(t(np.zeros((1, 1, 3, 3, 3))), t(np.zeros(1)))
    with pytest.raises(ValueError, match="kernel"):
        conv3d(x, p)


def test_depthwise_delta_kernel_is_identity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5, 5, 5)).astype(np.float32)
    w = np.zeros((4, 1, 3, 3, 3), np.float32)
    w[:, 0, 1, 1, 1] = 1.0
    out = conv3d(t(x), Conv3dParams(t(w), t(np.zeros(4, np.float32)),
                                    stride=1, padding=1, groups=4))
    np.testing.assert_allclose(out.data, x, atol=1e-6)


def test_depthwise_equals_grouped_conv3d_exactly():
    # groups=4 on 4 channels against groups=2 with the same taps on the
    # diagonal of each 2x2 group block: the extra products are exact zeros
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 5, 5, 5)).astype(np.float32)
    w = rng.normal(size=(4, 1, 3, 3, 3)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    block = np.zeros((4, 2, 3, 3, 3), np.float32)
    for o in range(4):
        block[o, o % 2] = w[o, 0]
    a = conv3d(t(x), Conv3dParams(t(w), t(b), stride=1, padding=1, groups=4))
    g = conv3d(t(x), Conv3dParams(t(block), t(b), stride=1, padding=1, groups=2))
    np.testing.assert_array_equal(a.data, g.data)


def test_depthwise_weight_grad_is_the_pairwise_voxel_sum():
    # The depthwise weight gradient must stay numpy's pairwise sum over the
    # voxels. einsum's sequential sum moves float32 dw by up to 2e-5, and that
    # alone takes the A3 desk run from DSC 0.839 to 0.793 (a FAIL).
    rng = np.random.default_rng(30)
    x = rng.normal(size=(4, 9, 9, 9)).astype(np.float32)
    w = rng.normal(size=(4, 1, 3, 3, 3)).astype(np.float32)
    gy = rng.normal(size=x.shape).astype(np.float32)
    weight = t(w, grad=True)
    out = conv3d(t(x), Conv3dParams(weight, t(np.zeros(4, np.float32)),
                                    stride=1, padding=1, groups=4))
    T.sum_all(T.mul(out, t(gy))).backward()  # hands the rule exactly gy
    dw = weight.grad
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
    for a in range(3):
        for bb in range(3):
            for c in range(3):
                window = xp[:, a:a + 9, bb:bb + 9, c:c + 9]
                expect = (gy * window).sum(axis=(1, 2, 3))
                assert dw[:, 0, a, bb, c].tobytes() == expect.tobytes()


def test_depthwise_box_kernel_on_constant_volume():
    c = 2.5
    x = np.full((1, 5, 5, 5), c)
    w = np.full((1, 1, 3, 3, 3), 0.75)
    out = conv3d(t(x, wide=True), Conv3dParams(t(w, wide=True),
                                               t(np.zeros(1), wide=True),
                                               stride=1, padding=1, groups=1))
    # interior voxels see the full 27-tap box
    np.testing.assert_allclose(out.data[0, 1:-1, 1:-1, 1:-1], c * 27 * 0.75,
                               atol=1e-9)


def test_grouped_k1_full_groups_is_per_channel_scale():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    w = rng.normal(size=(4, 1, 1, 1, 1)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    out = conv3d(t(x), Conv3dParams(t(w), t(b), stride=1, padding=0, groups=4))
    expect = x * w[:, 0, 0, 0, 0][:, None, None, None] + b[:, None, None, None]
    np.testing.assert_allclose(out.data, expect, rtol=1e-6)


def test_grouped_param_count_ratio_is_one_over_g():
    # the CEMSA block's grouped 1x1x1 conv, counted without its bias
    def gconv_weight(groups):
        cfg = CemsaConfig(dim=16, heads=2, dw_kernel=3, spatial_shape=(4, 4, 4),
                          groups=groups)
        return np.prod(cemsa_param_shapes(cfg)["g_kv.weight"][0])

    assert gconv_weight(1) == 4 * gconv_weight(4)


def test_grouped_conv3d_vs_oracle_g4():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 4, 4, 4))
    w = rng.normal(size=(4, 1, 3, 3, 3))
    b = rng.normal(size=4)
    out = conv3d(t(x, wide=True), Conv3dParams(t(w, wide=True), t(b, wide=True),
                                               stride=1, padding=1, groups=4))
    expect = conv3d_reference(x, w, b, stride=1, padding=1, groups=4)
    assert np.max(np.abs(out.data - expect)) < 1e-5


def test_conv_linearity_with_zero_bias():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 4, 4, 4))
    y = rng.normal(size=(2, 4, 4, 4))
    w = rng.normal(size=(3, 2, 3, 3, 3))
    b = np.zeros(3)

    def run(v):
        return conv3d(t(v, wide=True),
                      Conv3dParams(t(w, wide=True), t(b, wide=True), padding=1)).data

    np.testing.assert_allclose(run(2.0 * x + 0.5 * y), 2.0 * run(x) + 0.5 * run(y),
                               atol=1e-10)


def test_conv_translation_equivariance_interior():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 8, 8, 8))
    w = rng.normal(size=(1, 1, 3, 3, 3))
    b = np.zeros(1)

    def run(v):
        return conv3d(t(v, wide=True),
                      Conv3dParams(t(w, wide=True), t(b, wide=True), padding=1)).data

    shifted = np.roll(x, 1, axis=3)
    a = run(x)
    bsh = run(shifted)
    # interior only: wrap-around face and far padding column both excluded
    np.testing.assert_allclose(bsh[:, :, :, 2:-1], a[:, :, :, 1:-2], atol=1e-10)


def test_linear_identity_and_bias_only():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(5, 4)).astype(np.float32)
    eye = LinearParams(t(np.eye(4, dtype=np.float32)), t(np.zeros(4, np.float32)))
    np.testing.assert_allclose(linear(t(x), eye).data, x, rtol=1e-6)
    bvec = rng.normal(size=3).astype(np.float32)
    bias_only = LinearParams(t(np.zeros((3, 4), np.float32)), t(bvec))
    out = linear(t(x), bias_only)
    np.testing.assert_allclose(out.data, np.tile(bvec, (5, 1)), rtol=1e-6)


def test_linear_vs_matmul_oracle():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(6, 5))
    w = rng.normal(size=(3, 5))
    b = rng.normal(size=3)
    out = linear(t(x, wide=True), LinearParams(t(w, wide=True), t(b, wide=True)))
    np.testing.assert_allclose(out.data, x @ w.T + b, atol=1e-12)


@pytest.mark.parametrize("groups", [1, 2, 4])
def test_conv3d_gradcheck(groups):
    rng = np.random.default_rng(13 + groups)
    x0 = rng.normal(size=(4, 4, 4, 4))
    w0 = rng.normal(size=(4, 4 // groups, 3, 3, 3)) * 0.3
    b0 = rng.normal(size=4) * 0.3

    def build(lv):
        out = conv3d(lv["x"], Conv3dParams(lv["w"], lv["b"], stride=1,
                                           padding=1, groups=groups))
        return T.mean_all(T.mul(out, out))

    rep = T.grad_check(build, {"x": x0, "w": w0, "b": b0}, wide=True,
                       coords_per_leaf=6, rng=np.random.default_rng(0))
    assert rep.max_err() < 1e-6, rep


def test_conv3d_stride2_gradcheck():
    rng = np.random.default_rng(20)
    x0 = rng.normal(size=(2, 6, 6, 6))
    w0 = rng.normal(size=(3, 2, 3, 3, 3)) * 0.3
    b0 = rng.normal(size=3) * 0.3

    def build(lv):
        out = conv3d(lv["x"], Conv3dParams(lv["w"], lv["b"], stride=2, padding=1))
        return T.mean_all(T.mul(out, out))

    rep = T.grad_check(build, {"x": x0, "w": w0, "b": b0}, wide=True,
                       coords_per_leaf=6, rng=np.random.default_rng(1))
    assert rep.max_err() < 1e-6, rep


def closure_arrays(rule):
    """The arrays that own the memory of the ndarrays in ``rule``'s cells."""
    owners = {}
    for cell in rule.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            owners[id(value)] = value
    return owners


def test_backward_consumes_the_graph_and_frees_what_conv3d_saved():
    rng = np.random.default_rng(47)
    x = t(rng.normal(size=(2, 6, 6, 6)), grad=True)
    weight = t(rng.normal(size=(3, 2, 3, 3, 3)), grad=True)
    bias = t(np.zeros(3), grad=True)
    out = conv3d(T.leaky_relu(x), Conv3dParams(weight, bias, padding=1))
    loss = T.mean_all(T.mul(out, out))
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if node._backward_rule is not None and id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    saved = closure_arrays(out._backward_rule)
    for parent in (x.data, weight.data, bias.data):
        saved.pop(id(parent), None)
    assert saved  # the padded input, at least
    refs = [weakref.ref(a) for a in saved.values()]
    del saved
    gc.disable()  # freed by reference counts alone, not a collector pass
    try:
        loss.backward()
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
    assert len(nodes) == 4
    for node in nodes.values():
        assert node.grad is None and node._parents == ()
        assert node._backward_rule is T._consumed
    for leaf in (x, weight, bias):
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape
