import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from symtrans import tensor as T
from symtrans.deformation import integrate
from symtrans.losses import (
    LossConfig,
    dice,
    metrics_report,
    similarity_loss,
    smoothness_loss,
    total_loss,
    warp_labels,
)
from symtrans.oracles import mse_reference, smoothness_reference
from symtrans.tensor import Tensor


def test_loss_config_validation():
    with pytest.raises(ValueError, match="lambda"):
        LossConfig(lambda_reg=-0.1)


def test_similarity_identical_is_zero():
    x = np.random.default_rng(0).normal(size=(1, 4, 4, 4)).astype(np.float32)
    assert similarity_loss(Tensor(x), Tensor(x.copy())).item() == 0.0


def test_similarity_constant_offset():
    x = np.zeros((1, 4, 4, 4))
    y = np.full((1, 4, 4, 4), 0.3)
    out = similarity_loss(Tensor(x), Tensor(y)).item()
    assert abs(out - 0.09) < 1e-9


def test_similarity_vs_direct_sum_oracle():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(1, 3, 4, 5))
    b = rng.normal(size=(1, 3, 4, 5))
    out = similarity_loss(Tensor(a), Tensor(b)).item()
    assert abs(out - mse_reference(a, b)) < 1e-12


def test_smoothness_zero_and_constant():
    assert smoothness_loss(Tensor(np.zeros((3, 4, 4, 4)))).item() == 0.0
    const = np.full((3, 4, 4, 4), 1.7)
    assert smoothness_loss(Tensor(const)).item() == 0.0


def test_smoothness_translation_invariance():
    rng = np.random.default_rng(2)
    u = rng.normal(size=(3, 4, 5, 4))
    base = smoothness_loss(Tensor(u)).item()
    shifted = smoothness_loss(Tensor(u + 3.25)).item()
    assert abs(base - shifted) < 1e-9


def test_smoothness_ramp_term_is_one():
    # u(p) = p along axis d on channel 0: that channel/axis term averages 1
    shape = (5, 4, 4)
    u = np.zeros((3,) + shape)
    u[0] = np.indices(shape)[0]
    d = np.diff(u[0], axis=0)
    assert np.mean(d * d) == 1.0
    # full loss agrees with the independent reference implementation
    out = smoothness_loss(Tensor(u)).item()
    assert abs(out - smoothness_reference(u)) < 1e-12


def test_smoothness_vs_direct_sum_oracle_random():
    rng = np.random.default_rng(3)
    u = rng.normal(size=(3, 4, 4, 5))
    out = smoothness_loss(Tensor(u)).item()
    assert abs(out - smoothness_reference(u)) < 1e-12


def test_smoothness_degenerate_extent_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        smoothness_loss(Tensor(np.zeros((3, 1, 4, 4))))


def test_total_loss_zero_field_identical_volumes():
    img = np.random.default_rng(4).normal(size=(1, 4, 4, 4)).astype(np.float32)
    zero = np.zeros((3, 4, 4, 4), np.float32)
    loss, comp, u, warped = total_loss(Tensor(img), Tensor(img.copy()),
                                       Tensor(zero), LossConfig(),
                                       mode="displacement")
    assert loss.item() == 0.0
    np.testing.assert_array_equal(u.data, zero)
    np.testing.assert_array_equal(warped.data, img)
    assert comp["loss_sim"] == 0.0 and comp["loss_reg"] == 0.0


def test_total_loss_lambda_zero_is_similarity_only():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(1, 4, 4, 4)).astype(np.float32)
    f = rng.normal(size=(1, 4, 4, 4)).astype(np.float32)
    u = (0.2 * rng.normal(size=(3, 4, 4, 4))).astype(np.float32)
    _, comp, _, _ = total_loss(Tensor(m), Tensor(f), Tensor(u),
                               LossConfig(lambda_reg=0.0), mode="displacement")
    assert comp["loss"] == comp["loss_sim"]
    assert comp["loss_reg"] > 0.0


def test_total_loss_modes_differ_only_by_integration():
    rng = np.random.default_rng(6)
    m = gaussian_filter(rng.normal(size=(1, 6, 6, 6)), (0, 1.5, 1.5, 1.5))
    f = gaussian_filter(rng.normal(size=(1, 6, 6, 6)), (0, 1.5, 1.5, 1.5))
    raw = gaussian_filter(rng.normal(size=(3, 6, 6, 6)), (0, 2, 2, 2))
    _, comp_disp, u_disp, _ = total_loss(Tensor(m), Tensor(f), Tensor(raw),
                                         LossConfig(), mode="displacement")
    _, comp_diff, u_diff, _ = total_loss(Tensor(m), Tensor(f), Tensor(raw),
                                         LossConfig(), mode="diffeomorphic")
    assert comp_disp["loss"] != comp_diff["loss"]
    np.testing.assert_array_equal(u_disp.data, raw)
    np.testing.assert_array_equal(
        u_diff.data, integrate(Tensor(raw)).data)
    with pytest.raises(ValueError, match="mode"):
        total_loss(Tensor(m), Tensor(f), Tensor(raw), LossConfig(), mode="affine")


def test_total_loss_gradcheck_through_warp():
    rng = np.random.default_rng(7)
    m = gaussian_filter(rng.normal(size=(1, 5, 5, 5)), (0, 1.5, 1.5, 1.5))
    f = gaussian_filter(rng.normal(size=(1, 5, 5, 5)), (0, 1.5, 1.5, 1.5))
    raw = gaussian_filter(rng.normal(size=(3, 5, 5, 5)), (0, 1.5, 1.5, 1.5)) + 0.2

    def build(lv):
        loss, *_ = total_loss(Tensor(m.astype(lv["raw"].dtype)),
                              Tensor(f.astype(lv["raw"].dtype)),
                              lv["raw"], LossConfig(), mode="displacement")
        return loss

    err = T.grad_check(build, {"raw": raw}, wide=True, coords_per_leaf=10,
                       rng=np.random.default_rng(8))
    assert err < 1e-4, err


def _ball_labels(shape, centers, radius):
    grid = np.indices(shape)
    out = np.zeros(shape, dtype=np.int64)
    for lab, c in enumerate(centers, start=1):
        r2 = sum((grid[i] - c[i]) ** 2 for i in range(3))
        out[r2 <= radius ** 2] = lab
    return out


def test_dice_identical_maps():
    labs = _ball_labels((10, 10, 10), [(3, 3, 3), (7, 7, 7)], 2)
    per_label, mean = dice(labs, labs.copy())
    assert per_label == {1: 1.0, 2: 1.0}
    assert mean == 1.0


def test_dice_disjoint_same_size():
    a = np.zeros((4, 4, 4), np.int64)
    b = np.zeros((4, 4, 4), np.int64)
    a[0, 0, :2] = 1
    b[3, 3, :2] = 1
    per_label, mean = dice(a, b)
    assert per_label == {1: 0.0}
    assert mean == 0.0


def test_dice_half_overlap_closed_form():
    a = np.zeros((4, 4, 4), np.int64)
    b = np.zeros((4, 4, 4), np.int64)
    a.flat[:8] = 1
    b.flat[4:12] = 1
    per_label, _ = dice(a, b)
    assert per_label[1] == 0.5


def test_dice_extent_mismatch():
    with pytest.raises(ValueError, match="extent"):
        dice(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


def test_dice_label_absent_from_both_excluded():
    # the labels scored are those present in either map: 1 in both, 3 in one
    # only, and 2 in neither
    a = np.zeros((3, 3, 3), np.int64)
    a[0, 0, 0] = 1
    b = a.copy()
    b[2, 2, 2] = 3
    per_label, mean = dice(a, b)
    assert per_label == {1: 1.0, 3: 0.0}
    assert mean == 0.5


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_dice_bounded_and_symmetric(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, size=(5, 5, 5))
    b = rng.integers(0, 4, size=(5, 5, 5))
    pa, ma = dice(a, b)
    pb, mb = dice(b, a)
    assert pa == pb and ma == mb
    assert all(0.0 <= v <= 1.0 for v in pa.values())
    assert 0.0 <= ma <= 1.0


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_dice_invariant_under_shared_label_permutation(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, size=(5, 5, 5))
    b = rng.integers(0, 4, size=(5, 5, 5))
    perm = {0: 0, 1: 3, 2: 1, 3: 2}
    remap = np.vectorize(perm.get)
    _, mean = dice(a, b)
    _, mean_permuted = dice(remap(a), remap(b))
    assert abs(mean - mean_permuted) < 1e-12


def test_warp_labels_identity_and_integer_shift():
    labs = _ball_labels((8, 8, 8), [(4, 4, 4)], 2)
    np.testing.assert_array_equal(warp_labels(labs, np.zeros((3, 8, 8, 8))), labs)
    u = np.zeros((3, 8, 8, 8))
    u[0] = 1.0
    shifted = warp_labels(labs, u)
    np.testing.assert_array_equal(shifted[:-1], labs[1:])


def test_warp_labels_set_containment():
    rng = np.random.default_rng(9)
    labs = _ball_labels((8, 8, 8), [(3, 3, 3), (5, 5, 5)], 2)
    u = gaussian_filter(rng.normal(size=(3, 8, 8, 8)), (0, 2, 2, 2)) * 3
    warped = warp_labels(labs, u)
    assert set(np.unique(warped)) <= set(np.unique(labs))
    assert warped.dtype == labs.dtype


@pytest.mark.parametrize("shape", [(3, 3, 3), (5, 7, 9), (9, 4, 6)])
def test_warp_labels_matches_the_index_grid_formula(shape):
    # nearest source of p + u(p), clamped per axis, through full index grids
    rng = np.random.default_rng(10)
    labs = rng.integers(0, 7, size=shape).astype(np.int16)
    u = (rng.normal(size=(3,) + shape) * 3).astype(np.float32)
    coords = np.indices(shape).astype(np.float64) + u
    nearest = tuple(np.clip(np.rint(coords[ax]), 0, ext - 1).astype(np.int64)
                    for ax, ext in enumerate(shape))
    expect = labs[nearest]
    got = warp_labels(labs, u)
    assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()


def test_metrics_report_bundle():
    labs = _ball_labels((8, 8, 8), [(4, 4, 4)], 2)
    rep = metrics_report(np.zeros((3, 8, 8, 8)), {"loss": 0.5},
                         moving_labels=labs, fixed_labels=labs)
    assert rep["folding_count"] == 0
    assert rep["dsc_mean"] == 1.0
    assert rep["loss"] == 0.5
