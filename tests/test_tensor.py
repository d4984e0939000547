import contextlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from symtrans import tensor as T


def t(data, grad=True, wide=False):
    return T.Tensor(np.asarray(data), requires_grad=grad,
                    dtype=T.WIDE if wide else T.STANDARD)


def test_add_basic():
    out = T.add(t([1.0, 2.0]), t([3.0, 4.0]))
    np.testing.assert_allclose(out.data, [4.0, 6.0])


def test_add_shape_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
        T.add(t([1.0, 2.0]), t([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul])
def test_scalar_operand_is_a_type_error_naming_the_op(op):
    x = t([[1.0, 2.0], [3.0, 4.0]])
    for a, b in ((x, 2.0), (2.0, x), (x, x.data)):
        with pytest.raises(TypeError, match=rf"^{op.__name__}: operands must be Tensors"):
            op(a, b)


def test_mixed_precision_rejected():
    with pytest.raises(TypeError, match="precision"):
        T.add(t([1.0]), t([1.0], wide=True))


@pytest.mark.parametrize("taping", [True, False])
def test_layer_norm_refuses_mixed_precisions_in_the_forward(taping):
    x = t(np.ones((2, 4)))
    gamma, beta = t(np.ones(4), wide=True), t(np.zeros(4), wide=True)
    with contextlib.nullcontext() if taping else T.no_grad():
        with pytest.raises(TypeError, match="mixed precisions: float32 vs float64"):
            T.layer_norm(x, gamma, beta)


def test_leaky_relu_values():
    out = T.leaky_relu(t([-1.0, 2.0]), slope=0.2)
    np.testing.assert_allclose(out.data, [-0.2, 2.0], rtol=1e-6)


def test_matmul_identity():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(a, t(np.eye(2)))
    np.testing.assert_allclose(out.data, a.data)


def test_matmul_small_case():
    out = T.matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[1.0], [1.0]]))
    np.testing.assert_allclose(out.data, [[3.0], [7.0]])


def test_matmul_vs_triple_loop():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 7))
    b = rng.normal(size=(7, 3))
    expect = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(7):
                expect[i, j] += a[i, k] * b[k, j]
    out = T.matmul(t(a, wide=True), t(b, wide=True))
    assert np.max(np.abs(out.data - expect)) < 1e-6


def test_matmul_inner_mismatch():
    with pytest.raises(ValueError, match="inner"):
        T.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))


def test_softmax_uniform():
    out = T.softmax_lastdim(t([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=1e-6)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 6))
    a = T.softmax_lastdim(t(x, wide=True)).data
    b = T.softmax_lastdim(t(x + 17.5, wide=True)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def softmax_reference(row):
    """Direct exp/normalize of one vector in float64."""
    row = np.asarray(row, dtype=np.float64)
    e = np.exp(row - row.max())
    return e / e.sum()


def test_softmax_matches_direct_formula():
    out = T.softmax_lastdim(t([1.0, 2.0, 3.0], wide=True))
    np.testing.assert_allclose(out.data, softmax_reference([1.0, 2.0, 3.0]),
                               atol=1e-12)


def test_softmax_rows_are_probability_vectors():
    rng = np.random.default_rng(3)
    out = T.softmax_lastdim(t(rng.normal(size=(8, 5), scale=30)))
    assert np.all(out.data >= 0)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


def test_layer_norm_constant_row_is_beta():
    x = t(np.full((3, 4), 2.5))
    out = T.layer_norm(x, t(np.ones(4)), t(np.zeros(4)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-5)


def test_layer_norm_moments():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(10, 32), scale=3.0)
    gamma, beta = np.full(32, 1.5), np.full(32, -0.5)
    out = T.layer_norm(t(x, wide=True), t(gamma, wide=True), t(beta, wide=True)).data
    np.testing.assert_allclose(out.mean(axis=1), -0.5, atol=1e-6)
    np.testing.assert_allclose(out.std(axis=1), 1.5, rtol=1e-3)


def test_layer_norm_param_length_mismatch():
    with pytest.raises(ValueError, match="gamma"):
        T.layer_norm(t(np.ones((2, 4))), t(np.ones(3)), t(np.zeros(3)))


def test_reshape_round_trip():
    x = t(np.arange(6, dtype=np.float32).reshape(2, 3))
    back = T.reshape(T.reshape(x, (3, 2)), (2, 3))
    np.testing.assert_array_equal(back.data, x.data)


def test_flatten_preserves_channel_sums():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 4, 5, 2))  # D,H,W,C
    flat = T.reshape(t(x), (3 * 4 * 5, 2))
    np.testing.assert_allclose(flat.data.sum(axis=0), x.sum(axis=(0, 1, 2)),
                               rtol=1e-5)


def test_permute_invalid():
    with pytest.raises(ValueError, match="permutation"):
        T.permute(t(np.ones((2, 3))), (0, 0))


def test_backward_sum_gives_ones():
    x = t(np.arange(5, dtype=np.float32))
    T.sum_all(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones(5))


def test_backward_sum_of_squares():
    xv = np.array([1.0, -2.0, 3.0], dtype=np.float32)
    x = t(xv)
    T.sum_all(T.mul(x, x)).backward()
    np.testing.assert_allclose(x.grad, 2 * xv, rtol=1e-6)


def test_backward_rejects_nonscalar():
    with pytest.raises(ValueError, match="scalar"):
        t(np.ones(3)).backward()


def test_backward_refuses_a_gradient_of_another_dtype():
    # as it refuses one of another shape: a float32 leaf must not be handed
    # a float64 gradient, which the optimizer would then mix into float32
    x = t(np.ones(3, np.float32))
    y = T.make_op((x,), x.data * 2, lambda g: (g.astype(np.float64),))
    with pytest.raises(TypeError, match="dtype float64 for parent of dtype float32"):
        T.sum_all(y).backward()


def test_gradient_additivity_over_shared_leaf():
    xv = np.array([0.5, 1.5], dtype=np.float32)
    x = t(xv)
    loss = T.add(T.sum_all(T.mul(x, x)), T.sum_all(x))
    loss.backward()
    np.testing.assert_allclose(x.grad, 2 * xv + 1, rtol=1e-6)


def test_grad_check_linear_layer_wide():
    rng = np.random.default_rng(6)
    w0 = rng.normal(size=(3, 4))
    x0 = rng.normal(size=(5, 4))

    def build(leaves):
        y = T.matmul(leaves["x"], T.transpose2d(leaves["w"]))
        return T.sum_all(T.mul(y, y))

    rep = T.grad_check(build, {"x": x0, "w": w0}, wide=True,
                       coords_per_leaf=8, rng=np.random.default_rng(0))
    assert rep.max_err() < 1e-7, rep


def test_grad_check_constant_function():
    def build(leaves):
        return T.sum_all(T.scalar_mul(leaves["x"], 0.0))

    rep = T.grad_check(build, {"x": np.ones(4)}, wide=True)
    assert rep.max_err() == 0.0


@pytest.mark.parametrize("wide,tol", [(False, 1e-4), (True, 1e-6)])
def test_gelu_backward_finite_differences(wide, tol):
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=16)

    def build(leaves):
        return T.sum_all(T.mul(T.gelu(leaves["x"]), leaves["x"]))

    rep = T.grad_check(build, {"x": x0}, wide=wide, coords_per_leaf=16,
                       rng=np.random.default_rng(1))
    assert rep.max_err() < tol, rep


@pytest.mark.parametrize("wide,tol", [(False, 1e-4), (True, 1e-6)])
def test_layer_norm_backward_finite_differences(wide, tol):
    rng = np.random.default_rng(8)
    leaves = {
        "x": rng.normal(size=(4, 6)),
        "g": rng.normal(size=6),
        "b": rng.normal(size=6),
    }

    def build(lv):
        y = T.layer_norm(lv["x"], lv["g"], lv["b"])
        return T.mean_all(T.mul(y, y))

    rep = T.grad_check(build, leaves, wide=wide, coords_per_leaf=6,
                       rng=np.random.default_rng(2))
    assert rep.max_err() < tol, rep


def test_permute_backward_finite_differences():
    rng = np.random.default_rng(9)
    x0 = rng.normal(size=(2, 3, 4))
    scale = rng.normal(size=(4, 3, 2))

    def build(lv):
        y = T.permute(lv["x"], (2, 1, 0))
        return T.sum_all(T.mul(y, T.Tensor(scale.astype(y.dtype))))

    rep = T.grad_check(build, {"x": x0}, wide=True, coords_per_leaf=10,
                       rng=np.random.default_rng(3))
    assert rep.max_err() < 1e-8, rep


def test_softmax_backward_finite_differences():
    rng = np.random.default_rng(10)
    x0 = rng.normal(size=(3, 5))
    mixer = rng.normal(size=(3, 5))

    def build(lv):
        y = T.softmax_lastdim(lv["x"])
        return T.sum_all(T.mul(y, T.Tensor(mixer.astype(y.dtype))))

    rep = T.grad_check(build, {"x": x0}, wide=True, coords_per_leaf=15,
                       rng=np.random.default_rng(4))
    assert rep.max_err() < 1e-6, rep


def test_narrow_and_concat_round_trip():
    rng = np.random.default_rng(11)
    x = t(rng.normal(size=(4, 6)))
    left = T.narrow(x, 1, 0, 3)
    right = T.narrow(x, 1, 3, 3)
    back = T.concat([left, right], axis=1)
    np.testing.assert_array_equal(back.data, x.data)
    T.sum_all(back).backward()
    np.testing.assert_array_equal(x.grad, np.ones((4, 6)))


def contribute(x, g, order, label, worker=None):
    """An op whose rule hands ``x`` the gradient ``g`` (from a job on
    ``worker`` when given) and records ``label`` in ``order``."""
    def job():
        time.sleep(0.05)
        return g

    def rule(_):
        order.append(label)
        return (worker.submit(job) if worker else g,)

    return T.make_op((x,), x.data.copy(), rule)


def deferred_leaf_grad(contributions, worker):
    x = t(np.zeros(contributions[0].shape, np.float32))
    order = []
    (g1, w1), (g2, w2), (g3, w3) = zip(contributions, worker)
    loss = T.sum_all(T.add(T.add(contribute(x, g1, order, 0, w1),
                                 contribute(x, g2, order, 1, w2)),
                           contribute(x, g3, order, 2, w3)))
    loss.backward()
    return x.grad, order


def test_deferred_leaf_contributions_accumulate_to_the_inline_bytes():
    rng = np.random.default_rng(3)
    parts = [(rng.normal(size=4096) * scale).astype(np.float32) for scale in (1e4, 1.0, 1e-3)]
    inline, order = deferred_leaf_grad(parts, (None, None, None))
    first, second, third = (parts[i] for i in order)
    expect = first.copy()
    expect += second
    expect += third
    assert inline.tobytes() == expect.tobytes()
    # the eager contribution comes last: summed first, the bytes would move
    assert order[-1] == 2
    eager_first = parts[2] + first
    eager_first += second
    assert eager_first.tobytes() != expect.tobytes()
    with ThreadPoolExecutor(1) as worker:
        deferred, _ = deferred_leaf_grad(parts, (worker, worker, None))
    assert deferred.tobytes() == expect.tobytes()


def test_backward_refuses_a_future_for_a_non_leaf_parent():
    finished = threading.Event()

    def job():
        time.sleep(0.1)
        finished.set()
        return np.ones(3, np.float32)

    with ThreadPoolExecutor(1) as worker:
        hidden = T.scalar_mul(t([1.0, 2.0, 3.0]), 2.0)
        out = T.make_op((hidden,), hidden.data.copy(), lambda g: (worker.submit(job),))
        with pytest.raises(TypeError, match="Future"):
            T.sum_all(out).backward()
        assert finished.is_set()


def test_backward_raises_a_rule_error_only_after_the_worker_finished():
    finished = threading.Event()

    def job():
        time.sleep(0.2)
        finished.set()
        return np.ones(3, np.float32)

    def failing(g):
        raise FloatingPointError("rule failed")

    with ThreadPoolExecutor(1) as worker:
        x, w = t([1.0, 2.0, 3.0]), t([4.0, 5.0, 6.0])
        u = T.make_op((w,), w.data.copy(), failing)  # its rule runs after v's
        v = T.make_op((x, u), x.data + u.data, lambda g: (worker.submit(job), g))
        with pytest.raises(FloatingPointError, match="rule failed"):
            T.sum_all(v).backward()
        assert finished.is_set()
        assert x.grad is None


def test_a_second_backward_through_a_consumed_graph_raises():
    w = t([2.0, 3.0])
    loss = T.sum_all(T.mul(T.scalar_mul(w, 1.0), w))
    loss.backward()
    np.testing.assert_array_equal(w.grad, [4.0, 6.0])
    with pytest.raises(RuntimeError, match="earlier backward"):
        loss.backward()
    np.testing.assert_array_equal(w.grad, [4.0, 6.0])
    # as does a new graph built on a node the first walk consumed
    hidden = T.scalar_mul(w, 2.0)
    T.sum_all(hidden).backward()
    with pytest.raises(RuntimeError, match="earlier backward"):
        T.sum_all(T.mul(hidden, hidden)).backward()
