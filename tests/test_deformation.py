import re
import threading
import time

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from symtrans import deformation, ops
from symtrans import tensor as T
from symtrans.deformation import (
    FoldingStats,
    compose,
    integrate,
    jacobian_determinant,
    trilinear_sample,
    warp,
)
from symtrans.oracles import compose_reference, trilinear_reference
from symtrans.tensor import Tensor

from conftest import graph_nodes, held_arrays


def smooth_field(shape, rng, amplitude, sigma=2.0):
    v = rng.normal(size=(3,) + shape)
    v = gaussian_filter(v, sigma=(0, sigma, sigma, sigma))
    peak = np.max(np.abs(v))
    return (v / peak * amplitude).astype(np.float64)


def test_zero_field_is_identity_warp():
    rng = np.random.default_rng(0)
    img = rng.normal(size=(1, 5, 6, 7)).astype(np.float32)
    out = warp(Tensor(img), Tensor(np.zeros((3, 5, 6, 7), np.float32)))
    np.testing.assert_array_equal(out.data, img)


def test_integer_shift_with_border_clamp():
    rng = np.random.default_rng(1)
    img = rng.normal(size=(1, 4, 4, 5)).astype(np.float32)
    u = np.zeros((3, 4, 4, 5), np.float32)
    u[2] = 1.0  # +1 along w: sample from the next w column
    out = warp(Tensor(img), Tensor(u)).data
    np.testing.assert_allclose(out[0, :, :, :-1], img[0, :, :, 1:], atol=1e-6)
    np.testing.assert_allclose(out[0, :, :, -1], img[0, :, :, -1], atol=1e-6)


def test_half_voxel_shift_on_linear_ramp():
    d, h, w = 4, 4, 8
    img = np.tile(np.arange(w, dtype=np.float64), (1, d, h, 1))
    u = np.zeros((3, d, h, w))
    u[2] = 0.5
    out = warp(Tensor(img), Tensor(u)).data
    np.testing.assert_allclose(out[0, :, :, :-1],
                               img[0, :, :, :-1] + 0.5, atol=1e-9)


def test_warp_gradcheck_both_inputs():
    rng = np.random.default_rng(2)
    img = gaussian_filter(rng.normal(size=(1, 6, 6, 6)), sigma=(0, 1.5, 1.5, 1.5))
    u0 = smooth_field((6, 6, 6), rng, amplitude=0.4) + 0.3

    def build(lv):
        out = warp(lv["img"], lv["u"])
        return T.mean_all(T.mul(out, out))

    rep = T.grad_check(build, {"img": img, "u": u0}, wide=True,
                       coords_per_leaf=8, rng=np.random.default_rng(3))
    assert rep.max_err() < 1e-4, rep


def test_warp_shape_mismatch():
    with pytest.raises(ValueError, match="spatial"):
        warp(Tensor(np.zeros((1, 4, 4, 4))), Tensor(np.zeros((3, 4, 4, 5))))


def test_warp_nonfinite_field_rejected():
    u = np.zeros((3, 4, 4, 4))
    u[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        warp(Tensor(np.zeros((1, 4, 4, 4))), Tensor(u))


@pytest.mark.parametrize("field_shape", [(3, 0, 4, 4), (3, 4, 0, 4), (3, 4, 4, 0),
                                         (0, 4, 4, 4)],
                         ids=["depth", "height", "width", "channels"])
def test_trilinear_refuses_an_empty_extent(field_shape):
    field = Tensor(np.zeros(field_shape, np.float32))
    offsets = np.zeros((3,) + field_shape[1:], np.float32)
    named = re.escape(f"trilinear_sample: field {field_shape}, offsets {offsets.shape}: "
                      f"no extent may be empty")
    with pytest.raises(ValueError, match=named):
        trilinear_sample(field, Tensor(offsets))
    if field_shape[0] == 3:  # as a velocity field's integration reaches it
        with pytest.raises(ValueError, match=named):
            integrate(field)


def test_compose_identity_element():
    rng = np.random.default_rng(4)
    b = smooth_field((5, 5, 5), rng, amplitude=0.8)
    zero = Tensor(np.zeros_like(b))
    np.testing.assert_allclose(compose(zero, Tensor(b)).data, b, atol=1e-12)
    np.testing.assert_allclose(compose(Tensor(b), zero).data, b, atol=1e-12)


def test_compose_constant_translations_add_in_interior():
    shape = (6, 6, 6)
    c1 = np.zeros((3,) + shape)
    c2 = np.zeros((3,) + shape)
    c1[0] = 0.75
    c2[1] = -0.5
    out = compose(Tensor(c1), Tensor(c2)).data
    interior = (slice(None), slice(1, -1), slice(1, -1), slice(1, -1))
    np.testing.assert_allclose(out[interior][0], 0.75, atol=1e-9)
    np.testing.assert_allclose(out[interior][1], -0.5, atol=1e-9)


def test_compose_vs_dense_resampling_oracle():
    rng = np.random.default_rng(5)
    a = smooth_field((5, 5, 5), rng, amplitude=0.6)
    b = smooth_field((5, 5, 5), rng, amplitude=0.6)
    out = compose(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(out, compose_reference(a, b), atol=1e-9)


def test_trilinear_vs_scalar_loop_oracle():
    rng = np.random.default_rng(6)
    field = rng.normal(size=(2, 5, 5, 5))
    off = smooth_field((5, 5, 5), rng, amplitude=1.3)
    out = warp(Tensor(field), Tensor(off)).data
    np.testing.assert_allclose(out, trilinear_reference(field, off), atol=1e-9)


def offsets_past_every_face(shape, rng):
    """Offsets to fractional points from two voxels before each face to two
    past it, at least 0.15 from every integer so no probe crosses a kink."""
    target = np.stack([rng.integers(-2, ext + 2, size=shape)
                       + rng.uniform(0.15, 0.85, size=shape) for ext in shape])
    for ax, ext in enumerate(shape):
        assert (target[ax] < 0).any() and (target[ax] > ext - 1).any()
    return target - np.indices(shape)


def test_extent_one_axis_and_every_face_vs_oracle_and_gradcheck():
    # h has extent 1: both of its corners are the same voxel (a zero step)
    shape = (4, 1, 5)
    rng = np.random.default_rng(15)
    field = rng.normal(size=(2,) + shape)
    off = offsets_past_every_face(shape, rng)
    out = trilinear_sample(Tensor(field), Tensor(off)).data
    np.testing.assert_allclose(out, trilinear_reference(field, off), atol=1e-9)

    def build(lv):
        out = trilinear_sample(lv["field"], lv["off"])
        return T.mean_all(T.mul(out, out))

    rep = T.grad_check(build, {"field": field, "off": off}, wide=True,
                       coords_per_leaf=off.size, rng=np.random.default_rng(16))
    assert rep.max_err() < 1e-6, rep


def test_rule_returns_none_for_a_parent_without_gradient():
    rng = np.random.default_rng(17)
    img = Tensor(rng.normal(size=(1, 4, 4, 4)).astype(np.float32))
    u = Tensor(rng.normal(size=(3, 4, 4, 4)).astype(np.float32), requires_grad=True)
    out = warp(img, u)
    dimg, du = graph_nodes(out)[0].rule(np.ones_like(out.data))
    assert dimg is None and du.shape == u.shape
    out = warp(u, Tensor(np.zeros_like(u.data)))
    dfield, doff = graph_nodes(out)[0].rule(np.ones_like(out.data))
    assert dfield.shape == u.shape and doff is None


def test_backward_closure_holds_at_most_24_bytes_per_voxel():
    rng = np.random.default_rng(18)
    shape = (8, 8, 8)
    field = Tensor(rng.normal(size=(3,) + shape).astype(np.float32), requires_grad=True)
    off = Tensor((2 * rng.normal(size=(3,) + shape)).astype(np.float32),
                 requires_grad=True)
    out = trilinear_sample(field, off)
    found = held_arrays(graph_nodes(out)[0].rule)
    # the field is a leaf's value anyway; the offsets are not held
    found.pop(id(field.data), None)
    assert sum(a.nbytes for a in found.values()) <= 24 * np.prod(shape)


def whole_volume_sample(fdat, off, gy):
    """The whole-volume sampler that the slab forward replaced, kept as the
    reference: (out, dfield, doff) of trilinear_sample for upstream ``gy``."""
    c, spatial = fdat.shape[0], fdat.shape[1:]
    n = int(np.prod(spatial))
    dtype = fdat.dtype
    base = np.zeros(spatial, dtype=np.int64)
    frac = np.empty((3,) + spatial, dtype=dtype)
    inside = np.empty((3,) + spatial, dtype=bool)
    for ax, ext in enumerate(spatial):
        line = [1, 1, 1]
        line[ax] = ext
        coord = np.arange(ext, dtype=dtype).reshape(line) + off[ax]
        inside[ax] = (coord >= 0.0) & (coord <= ext - 1.0)
        cl = np.clip(coord, 0.0, ext - 1.0)
        i0 = np.floor(cl).astype(np.int64)
        np.minimum(i0, max(ext - 2, 0), out=i0)
        frac[ax] = cl - i0
        base *= ext
        base += i0
    d, h, w = spatial
    step = (h * w if d > 1 else 0, w if h > 1 else 0, 1 if w > 1 else 0)
    corners = [((bd, bh, bw), bd * step[0] + bh * step[1] + bw * step[2])
               for bd in (0, 1) for bh in (0, 1) for bw in (0, 1)]
    flat_base = base.reshape(n)

    def gather(s):
        return np.take(fdat.reshape(c, n), flat_base + s, axis=1)

    fac = [(1.0 - frac[ax].reshape(n), frac[ax].reshape(n)) for ax in range(3)]

    def pair(a, b):
        return [[fac[a][i] * fac[b][j] for j in (0, 1)] for i in (0, 1)]

    out = np.zeros((c, n), dtype=dtype)
    for (bd, bh, bw), s in corners:
        out += gather(s) * (pair(0, 1)[bd][bh] * fac[2][bw])

    gy = gy.reshape(c, n)
    other_axes = ((1, 2), (0, 2), (0, 1))
    others = [pair(a, b) for a, b in other_axes]
    dfield = np.zeros_like(fdat)
    acc = np.zeros((3, c, n), dtype=dtype)
    chan_base = (np.arange(c, dtype=np.int64)[:, None] * n + flat_base).ravel()
    for bits, s in corners:
        weights = (gy * (others[2][bits[0]][bits[1]] * fac[2][bits[2]])).astype(np.float64)
        dfield += np.bincount(chan_base + s, weights=weights.ravel(),
                              minlength=c * n).astype(dtype).reshape(fdat.shape)
        v = gather(s)
        for ax, (a, b) in enumerate(other_axes):
            term = v * others[ax][bits[a]][bits[b]]
            if bits[ax]:
                acc[ax] += term
            else:
                acc[ax] -= term
    doff = np.empty((3,) + spatial, dtype=dtype)
    for ax in range(3):
        doff[ax] = (np.sum(gy * acc[ax], axis=0)
                    * inside[ax].reshape(n).astype(dtype)).reshape(spatial)
    return out.reshape((c,) + spatial), dfield, doff


def spy_on_thread(monkeypatch, name, ran_on):
    """Record, per call of deformation.<name>, whether it ran on the main
    thread."""
    inner = getattr(deformation, name)

    def spy(*args):
        ran_on.append(threading.current_thread() is threading.main_thread())
        return inner(*args)

    monkeypatch.setattr(deformation, name, spy)


# (spatial extents, channels): odd and non-cubic extents, and extents of 1 and 2
SLAB_CASES = [((7, 5, 3), 3), ((5, 6, 4), 1), ((1, 4, 5), 3), ((2, 1, 2), 1),
              ((2, 3, 1), 3), ((9, 2, 2), 1)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slab", ["one-depth", "whole-volume"])
@pytest.mark.parametrize("path", ["threaded_sample", "inline_training"])
def test_trilinear_bytes_do_not_depend_on_slabs_or_the_worker(path, slab, dtype, request,
                                                              monkeypatch):
    request.getfixturevalue(path)
    monkeypatch.setattr(deformation, "SAMPLE_SLAB_VOXELS",
                        1 if slab == "one-depth" else 1 << 30)
    slabs_on, scatters_on = [], []
    spy_on_thread(monkeypatch, "_sample_slab", slabs_on)
    spy_on_thread(monkeypatch, "_field_grad", scatters_on)
    rng = np.random.default_rng(21)
    for spatial, c in SLAB_CASES:
        field = rng.normal(size=(c,) + spatial).astype(dtype)
        # up to one and a half extents off on either side, so the clamp is
        # active on every face and many voxels share clamped corners
        reach = 1.5 * np.array(spatial, dtype=np.float64).reshape(3, 1, 1, 1)
        off = (rng.uniform(-1.0, 1.0, size=(3,) + spatial) * reach).astype(dtype)
        gy = rng.normal(size=(c,) + spatial).astype(dtype)
        want = whole_volume_sample(field, off, gy)
        for field_grad, off_grad in [(True, True), (True, False), (False, True),
                                     (False, False)]:
            out = trilinear_sample(Tensor(field, requires_grad=field_grad),
                                   Tensor(off, requires_grad=off_grad))
            assert out.data.dtype == dtype
            assert out.data.tobytes() == want[0].tobytes(), (spatial, c)
            if not (field_grad or off_grad):
                assert graph_nodes(out) == []
                continue
            for got, needed, expect in zip(graph_nodes(out)[0].rule(gy),
                                           (field_grad, off_grad), want[1:]):
                if not needed:
                    assert got is None
                    continue
                assert got.dtype == dtype
                assert got.tobytes() == expect.tobytes(), (spatial, c, field_grad, off_grad)
    threaded = path == "threaded_sample"
    assert (not all(slabs_on)) == threaded
    assert (not all(scatters_on)) == threaded


def test_trilinear_forward_samples_small_volumes_inline(worker, monkeypatch):
    slabs_on, inline = [], []
    spy_on_thread(monkeypatch, "_sample_slab", slabs_on)
    rng = np.random.default_rng(26)
    for voxels in (deformation.SAMPLE_THREAD_VOXELS - 1, deformation.SAMPLE_THREAD_VOXELS):
        # at least two depths, so that only the voxel count decides
        d = next(k for k in range(2, voxels + 1) if voxels % k == 0)
        off = rng.uniform(-1.0, 1.0, size=(3, d, 1, voxels // d)).astype(np.float32)
        trilinear_sample(Tensor(np.ones((1,) + off.shape[1:], np.float32)), Tensor(off))
        inline.append(all(slabs_on))
        slabs_on.clear()
    assert inline == [True, False]


def test_trilinear_backward_scatters_small_gradients_inline(worker, monkeypatch):
    # the field scatter follows conv3d's gate on the gradient's size
    scatters_on = []
    spy_on_thread(monkeypatch, "_field_grad", scatters_on)
    rng = np.random.default_rng(27)
    for values in (ops.BACKWARD_THREAD_VALUES - 1, ops.BACKWARD_THREAD_VALUES):
        field = rng.normal(size=(1, 1, 1, values)).astype(np.float32)
        off = rng.uniform(-1.0, 1.0, size=(3, 1, 1, values)).astype(np.float32)
        out = trilinear_sample(Tensor(field, requires_grad=True),
                               Tensor(off, requires_grad=True))
        graph_nodes(out)[0].rule(np.ones_like(field))
    assert scatters_on == [True, False]


def fail_off_the_main_thread(monkeypatch, name, stopped):
    """Make deformation.<name> raise on the worker, after a pause, and set
    ``stopped`` as the worker leaves it."""
    inner = getattr(deformation, name)

    def exhausted(*args):
        if threading.current_thread() is threading.main_thread():
            return inner(*args)
        time.sleep(0.05)
        stopped.set()
        raise MemoryError("Unable to allocate 1.0 GiB for an array")

    monkeypatch.setattr(deformation, name, exhausted)


def fail_on_the_main_thread_while_the_worker_runs(monkeypatch, name, slow, finished):
    """Make deformation.<name> raise on the main thread once deformation.<slow>
    has started on the worker, which then takes 0.2 s and sets ``finished``."""
    started = threading.Event()
    inner_slow, inner = getattr(deformation, slow), getattr(deformation, name)

    def slowed(*args):
        if threading.current_thread() is threading.main_thread():
            return inner_slow(*args)
        started.set()
        time.sleep(0.2)
        result = inner_slow(*args)
        finished.set()
        return result

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            return inner(*args)
        assert started.wait(5)
        raise FloatingPointError("caller failed")

    monkeypatch.setattr(deformation, slow, slowed)
    monkeypatch.setattr(deformation, name, failing)


def sample_pair(rng, requires_grad=False):
    field = Tensor(rng.normal(size=(3, 4, 5, 6)).astype(np.float32), requires_grad=requires_grad)
    off = Tensor(rng.normal(size=(3, 4, 5, 6)).astype(np.float32), requires_grad=requires_grad)
    return field, off


def test_trilinear_forward_worker_error_reaches_the_caller_after_it_stopped(
        threaded_sample, monkeypatch):
    stopped = threading.Event()
    fail_off_the_main_thread(monkeypatch, "_sample_slab", stopped)
    with pytest.raises(MemoryError, match="1.0 GiB"):
        trilinear_sample(*sample_pair(np.random.default_rng(22)))
    assert stopped.is_set()


def test_trilinear_forward_joins_the_worker_before_reraising(threaded_sample, monkeypatch):
    finished = threading.Event()
    fail_on_the_main_thread_while_the_worker_runs(monkeypatch, "_gather", "_sample_slab",
                                                  finished)
    with pytest.raises(FloatingPointError, match="caller failed"):
        trilinear_sample(*sample_pair(np.random.default_rng(23)))
    assert finished.is_set()


def test_trilinear_backward_worker_error_reaches_the_caller_after_it_stopped(
        threaded_sample, monkeypatch):
    out = trilinear_sample(*sample_pair(np.random.default_rng(24), requires_grad=True))
    stopped = threading.Event()
    fail_off_the_main_thread(monkeypatch, "_field_grad", stopped)
    with pytest.raises(MemoryError, match="1.0 GiB"):
        T.sum_all(out).backward()
    assert stopped.is_set()


def test_trilinear_backward_joins_the_worker_before_reraising(threaded_sample, monkeypatch):
    # the offset gradient fails on the calling thread while the field
    # scatter still runs on the worker
    out = trilinear_sample(*sample_pair(np.random.default_rng(25), requires_grad=True))
    finished = threading.Event()
    fail_on_the_main_thread_while_the_worker_runs(monkeypatch, "_gather", "_field_grad",
                                                  finished)
    with pytest.raises(FloatingPointError, match="caller failed"):
        T.sum_all(out).backward()
    assert finished.is_set()


def test_trilinear_refuses_mixed_precisions():
    image = Tensor(np.zeros((1, 4, 4, 4), np.float32))
    field = Tensor(np.zeros((3, 4, 4, 4), np.float64), requires_grad=True)
    with pytest.raises(TypeError, match="mixed precisions: float32 vs float64"):
        warp(image, field)


def test_compose_gradcheck():
    rng = np.random.default_rng(7)
    a = smooth_field((5, 5, 5), rng, amplitude=0.4) + 0.25
    b = smooth_field((5, 5, 5), rng, amplitude=0.4) + 0.25

    def build(lv):
        out = compose(lv["a"], lv["b"])
        return T.mean_all(T.mul(out, out))

    rep = T.grad_check(build, {"a": a, "b": b}, wide=True,
                       coords_per_leaf=8, rng=np.random.default_rng(8))
    assert rep.max_err() < 1e-4, rep


def test_integrate_zero_velocity():
    out = integrate(Tensor(np.zeros((3, 4, 4, 4), np.float32)))
    np.testing.assert_array_equal(out.data, 0.0)


def test_integrate_constant_velocity_is_translation():
    shape = (8, 8, 8)
    v = np.zeros((3,) + shape)
    v[1] = 0.8
    u = integrate(Tensor(v)).data
    interior = u[:, 2:-2, 2:-2, 2:-2]
    assert np.max(np.abs(interior[1] - 0.8)) < 1e-4
    assert np.max(np.abs(interior[0])) < 1e-4
    assert np.max(np.abs(interior[2])) < 1e-4


def test_integrate_inverse_consistency():
    rng = np.random.default_rng(9)
    v = smooth_field((12, 12, 12), rng, amplitude=2.0, sigma=3.0)
    fwd = integrate(Tensor(v))
    bwd = integrate(Tensor(-v))
    round_trip = compose(fwd, bwd).data
    interior = round_trip[:, 2:-2, 2:-2, 2:-2]
    assert np.max(np.abs(interior)) < 0.1


def test_integrate_first_order_consistency():
    rng = np.random.default_rng(10)
    v = smooth_field((10, 10, 10), rng, amplitude=1.5, sigma=2.5)
    errs = []
    for alpha in (1.0, 0.5, 0.25, 0.125):
        u = integrate(Tensor(alpha * v)).data
        interior = (slice(None), slice(2, -2), slice(2, -2), slice(2, -2))
        errs.append(np.max(np.abs(u[interior] - alpha * v[interior])) / alpha)
    assert errs[-1] < errs[0]
    assert errs[-1] < 0.02


def test_integrate_smooth_field_is_fold_free():
    rng = np.random.default_rng(11)
    v = smooth_field((12, 12, 12), rng, amplitude=2.0, sigma=3.0)
    u = integrate(Tensor(v)).data
    _, stats = jacobian_determinant(u)
    assert stats.count == 0


def test_integrate_gradcheck():
    rng = np.random.default_rng(12)
    v0 = smooth_field((5, 5, 5), rng, amplitude=0.5) + 0.2

    def build(lv):
        u = integrate(lv["v"], steps=3)
        return T.mean_all(T.mul(u, u))

    rep = T.grad_check(build, {"v": v0}, wide=True, coords_per_leaf=8,
                       rng=np.random.default_rng(13))
    assert rep.max_err() < 1e-4, rep


def test_jacobian_identity():
    det, stats = jacobian_determinant(np.zeros((3, 5, 5, 5)))
    np.testing.assert_allclose(det, 1.0, atol=1e-12)
    assert stats == FoldingStats(count=0, fraction=0.0, interior_voxels=27)


def test_jacobian_uniform_expansion():
    shape = (6, 6, 6)
    grid = np.indices(shape).astype(np.float64)
    u = 0.5 * grid
    det, stats = jacobian_determinant(u)
    np.testing.assert_allclose(det[1:-1, 1:-1, 1:-1], 1.5 ** 3, atol=1e-9)
    assert stats.count == 0


def test_jacobian_strong_inversion_folds_everywhere():
    shape = (6, 6, 6)
    grid = np.indices(shape).astype(np.float64)
    u = -2.0 * grid
    det, stats = jacobian_determinant(u)
    np.testing.assert_allclose(det[1:-1, 1:-1, 1:-1], -1.0, atol=1e-9)
    assert stats.count == stats.interior_voxels
    assert stats.fraction == 1.0


def test_jacobian_of_composition_of_small_fields_positive():
    rng = np.random.default_rng(14)
    a = smooth_field((10, 10, 10), rng, amplitude=1.0, sigma=2.5)
    b = smooth_field((10, 10, 10), rng, amplitude=1.0, sigma=2.5)
    _, sa = jacobian_determinant(a)
    _, sb = jacobian_determinant(b)
    assert sa.count == 0 and sb.count == 0
    comp = compose(Tensor(a), Tensor(b)).data
    det, _ = jacobian_determinant(comp)
    assert np.all(det[2:-2, 2:-2, 2:-2] > 0)


@pytest.mark.parametrize("shape", [(3, 3, 3), (5, 7, 9), (9, 4, 6)])
def test_jacobian_bytes_do_not_depend_on_the_slab(shape, monkeypatch):
    # one depth per slab against the whole volume at once: the halo gives
    # every kept depth the same central or one-sided difference
    rng = np.random.default_rng(15)
    u = (rng.normal(size=(3,) + shape) * 1.5).astype(np.float32)
    grads = [np.gradient(u[i].astype(np.float64), axis=(0, 1, 2)) for i in range(3)]
    J = np.array(grads)
    for i in range(3):
        J[i, i] += 1.0
    expect = (J[0, 0] * (J[1, 1] * J[2, 2] - J[1, 2] * J[2, 1])
              - J[0, 1] * (J[1, 0] * J[2, 2] - J[1, 2] * J[2, 0])
              + J[0, 2] * (J[1, 0] * J[2, 1] - J[1, 1] * J[2, 0]))
    for slab_voxels in (1, shape[1] * shape[2] * 2, 1 << 30):
        monkeypatch.setattr(deformation, "SAMPLE_SLAB_VOXELS", slab_voxels)
        det, stats = jacobian_determinant(u)
        assert det.tobytes() == expect.tobytes()
        assert stats.count == int(np.sum(expect[1:-1, 1:-1, 1:-1] <= 0.0))


def test_jacobian_degenerate_extents_rejected():
    with pytest.raises(ValueError, match="extents"):
        jacobian_determinant(np.zeros((3, 2, 5, 5)))
