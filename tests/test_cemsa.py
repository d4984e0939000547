import numpy as np
import pytest

from symtrans import cemsa, ops
from symtrans import tensor as T
from symtrans.cemsa import (
    SCORE_BLOCK_BYTES,
    CemsaConfig,
    cemsa_block,
    cemsa_params,
    cemsa_qkv,
    clamp_kernel,
    count_flops,
    count_parameters,
    init_array,
    msa_count_parameters,
    multi_head_attention,
    tokens_to_volume,
    volume_to_tokens,
)
from symtrans.model import ModelConfig
from symtrans.ops import LinearParams, linear
from symtrans.oracles import attention_reference, conv3d_reference
from symtrans.tensor import Tensor

from conftest import graph_nodes, held_arrays


def toy_cfg(shape=(3, 3, 3), dim=8, heads=2, s=3):
    return CemsaConfig(dim=dim, heads=heads, dw_kernel=s, spatial_shape=shape)


def build_block(cfg, seed=0):
    bag = {}
    rng = np.random.default_rng(seed)

    def draw(name, shape, kind):
        bag[f"blk.{name}"] = Tensor(init_array(shape, kind, rng), requires_grad=True,
                                    dtype=np.float32)
        return bag[f"blk.{name}"]

    return bag, cemsa_params(cfg, draw)


def randomize(bag, seed, std=0.3):
    """Re-draw parameters at a healthy scale for well-conditioned probes.

    The training-time init keeps the residual-branch weights tiny, so a fresh
    block is close to the identity and hides most of its terms from a finite
    difference; gradient checks probe an ordinary random point instead.
    """
    rng = np.random.default_rng(seed)
    for name, tns in bag.items():
        if name.endswith(".gamma"):
            tns.data[:] = 1.0 + rng.normal(0, 0.1, size=tns.shape)
        else:
            tns.data[:] = rng.normal(0, std, size=tns.shape)


def test_clamp_kernel():
    assert clamp_kernel(24, (24, 28, 24)) == 23
    assert clamp_kernel(16, (12, 14, 12)) == 11
    assert clamp_kernel(12, (6, 7, 6)) == 5
    assert clamp_kernel(24, (8, 8, 8)) == 7
    assert clamp_kernel(16, (4, 4, 4)) == 3
    assert clamp_kernel(12, (2, 2, 2)) == 1
    assert clamp_kernel(3, (9, 9, 9)) == 3


def test_config_divisibility_checks():
    with pytest.raises(ValueError, match="heads"):
        CemsaConfig(dim=9, heads=2, dw_kernel=3, spatial_shape=(2, 2, 2))


@pytest.mark.parametrize("heads", [0, -1])
def test_config_refuses_fewer_than_one_head(heads):
    with pytest.raises(ValueError, match=f"dim 8 not divisible by heads {heads}"):
        CemsaConfig(dim=8, heads=heads, dw_kernel=3, spatial_shape=(2, 2, 2))


def test_qkv_identity_configuration():
    cfg = toy_cfg(s=1, dim=4, heads=2)
    bag, p = build_block(cfg)
    # delta depthwise kernel, identity grouped conv, identity projections
    p.dw.weight.data[:] = 1.0
    p.dw.bias.data[:] = 0.0
    p.g_kv.weight.data[:] = 1.0
    p.g_kv.bias.data[:] = 0.0
    p.proj_k.weight.data[:] = np.eye(4)
    p.proj_k.bias.data[:] = 0.0
    p.proj_v.weight.data[:] = np.eye(4)
    p.proj_v.bias.data[:] = 0.0
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(27, 4)).astype(np.float32))
    q, k, v = cemsa_qkv(x, cfg, p)
    np.testing.assert_allclose(q.data, x.data, atol=1e-6)
    ln = T.layer_norm(x, p.ln_kv.gamma, p.ln_kv.beta)
    np.testing.assert_allclose(k.data, ln.data, atol=1e-6)
    np.testing.assert_allclose(v.data, ln.data, atol=1e-6)


def test_qkv_shapes_and_token_count():
    cfg = toy_cfg()
    bag, p = build_block(cfg)
    x = Tensor(np.random.default_rng(2).normal(size=(27, 8)).astype(np.float32))
    q, k, v = cemsa_qkv(x, cfg, p)
    assert q.shape == k.shape == v.shape == (27, 8)


def test_qkv_token_count_mismatch():
    cfg = toy_cfg()
    bag, p = build_block(cfg)
    with pytest.raises(ValueError, match="token count"):
        cemsa_qkv(Tensor(np.zeros((26, 8), np.float32)), cfg, p)


def test_q_path_matches_manual_composition():
    cfg = toy_cfg(shape=(3, 3, 3), dim=4, heads=2, s=3)
    bag, p = build_block(cfg, seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(27, 4))
    q, _, _ = cemsa_qkv(Tensor(x, dtype=np.float64), cfg, p_to_wide(p))
    vol = x.T.reshape(4, 3, 3, 3)
    ref = conv3d_reference(vol, p.dw.weight.data, p.dw.bias.data,
                           stride=1, padding=1, groups=4)
    np.testing.assert_allclose(q.data, ref.reshape(4, 27).T, atol=1e-6)


def p_to_wide(p):
    """Clone CemsaParams with float64 tensors (for oracle comparisons)."""
    import copy

    q = copy.copy(p)
    for name in ("dw", "g_kv", "proj_k", "proj_v", "proj_out",
                 "ln_kv", "ln1", "ln2", "ffn1", "ffn2"):
        sub = getattr(p, name)
        new = copy.copy(sub)
        for f in vars(sub):
            val = getattr(sub, f)
            if isinstance(val, Tensor):
                setattr(new, f, Tensor(val.data.astype(np.float64)))
        setattr(q, name, new)
    return q


def test_attention_logits_start_at_unit_scale():
    # The score path (depthwise trunk, grouped conv, K projection) starts at
    # unit gain. With std-0.02 weights there, the logits of these stages
    # start near 1e-3, the K/V layer norm sits in its eps corner, and
    # training leaves the attention uniform.
    model = ModelConfig(input_shape=(16, 16, 16), base_dim=8,
                        encoder_depths=(1, 1, 1), decoder_depths=(1, 1, 1))
    rng = np.random.default_rng(0)
    for stage in (0, 1):
        cfg = model.cemsa_config(stage)
        _, p = build_block(cfg, seed=stage)
        # block inputs are layer-normed tokens: unit scale per token
        x = Tensor(rng.normal(size=(cfg.tokens, cfg.dim)).astype(np.float32))
        q, k, _ = cemsa_qkv(x, cfg, p)
        dk = cfg.dim // cfg.heads
        for h in range(cfg.heads):
            qh = q.data[:, h * dk:(h + 1) * dk]
            kh = k.data[:, h * dk:(h + 1) * dk]
            logits = qh @ kh.T / np.sqrt(dk)
            assert 0.3 < logits.std() < 5.0, (stage, h, logits.std())


def test_attention_single_token_is_projected_v():
    rng = np.random.default_rng(5)
    q = Tensor(rng.normal(size=(1, 4)).astype(np.float32))
    k = Tensor(rng.normal(size=(1, 4)).astype(np.float32))
    v = Tensor(rng.normal(size=(1, 4)).astype(np.float32))
    w = rng.normal(size=(4, 4)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    proj = LinearParams(Tensor(w), Tensor(b))
    out = linear(multi_head_attention(q, k, v, heads=2), proj)
    np.testing.assert_allclose(out.data, v.data @ w.T + b, rtol=1e-5)


def test_attention_uniform_when_keys_identical():
    rng = np.random.default_rng(6)
    q = Tensor(rng.normal(size=(5, 4)).astype(np.float32))
    k = Tensor(np.tile(rng.normal(size=4).astype(np.float32), (5, 1)))
    v = Tensor(rng.normal(size=(5, 4)).astype(np.float32))
    out = multi_head_attention(q, k, v, heads=2)
    expect = np.tile(v.data.mean(axis=0), (5, 1))
    np.testing.assert_allclose(out.data, expect, atol=1e-5)


def test_attention_vs_direct_formula_oracle():
    rng = np.random.default_rng(7)
    q = rng.normal(size=(4, 4))
    k = rng.normal(size=(4, 4))
    v = rng.normal(size=(4, 4))
    out = multi_head_attention(Tensor(q, dtype=np.float64),
                               Tensor(k, dtype=np.float64),
                               Tensor(v, dtype=np.float64), heads=2)
    ref = attention_reference(q, k, v, heads=2)
    assert np.max(np.abs(out.data - ref)) < 1e-6


def test_attention_rows_are_probability_vectors(threaded_attention, monkeypatch):
    # with every value 1 each output is its probability row's sum; scores
    # this large overflow exp unless each row is shifted by its max first
    rng = np.random.default_rng(8)
    q, k = (Tensor(rng.normal(size=(6, 4), scale=40).astype(np.float32)) for _ in range(2))
    ones = Tensor(np.ones((6, 4), np.float32))
    threaded = multi_head_attention(q, k, ones, heads=2)
    monkeypatch.setattr(ops, "_WORKER", None)
    inline = multi_head_attention(q, k, ones, heads=2)
    for out in (threaded, inline):
        np.testing.assert_allclose(out.data, 1.0, rtol=0, atol=4 * np.finfo(np.float32).eps)


def test_attention_at_32_cubed_tokens_is_one_block_per_head():
    # 512 float32 tokens fit one score block per head, and the whole call is
    # one node whose rule recomputes the probabilities: it holds q, k and v,
    # and no n x n array
    rng = np.random.default_rng(16)
    q, k, v = (Tensor(rng.normal(size=(512, 8)).astype(np.float32), requires_grad=True)
               for _ in range(3))
    out = multi_head_attention(q, k, v, heads=2)
    nodes = graph_nodes(out)
    assert len(nodes) == 1
    held = held_arrays(nodes[0].rule)
    assert {id(x.data) for x in (q, k, v)} <= held.keys()
    assert max(a.size for a in held.values()) == 512 * 8


def taped_softmax(x):
    """Softmax over the last axis as one tape op, shifted by the row max:
    the fused op's per-block arithmetic, with its own backward rule."""
    xd = x.data
    # exp and normalize in place: the shifted copy is the only temporary
    s = xd - xd.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    np.divide(s, s.sum(axis=-1, keepdims=True), out=s)

    def rule(g):
        dot = np.sum(g * s, axis=-1, keepdims=True)
        return (s * (g - dot),)

    return T.make_op((x,), s.astype(x.dtype, copy=False), rule)


def taped_attention(q, k, v, heads):
    """multi_head_attention as it was composed from tape ops: per head three
    column narrows and a transpose, per row block a row narrow, the scaled
    scores, their softmax and the product with V, then a concat of the
    blocks and one of the heads."""
    n, dm = q.shape
    dk = dm // heads
    scale = 1.0 / np.sqrt(dk)
    rows = max(1, cemsa.SCORE_BLOCK_BYTES // (k.shape[0] * q.data.itemsize))
    outputs = []
    for h in range(heads):
        qh = T.narrow(q, 1, h * dk, dk)
        kh = T.narrow(k, 1, h * dk, dk)
        vh = T.narrow(v, 1, h * dk, dk)
        kt = T.transpose2d(kh)
        blocks = []
        for start in range(0, n, rows):
            qb = qh if rows >= n else T.narrow(qh, 0, start, min(rows, n - start))
            scores = T.scalar_mul(T.matmul(qb, kt), scale)
            blocks.append(T.matmul(taped_softmax(scores), vh))
        outputs.append(blocks[0] if len(blocks) == 1 else T.concat(blocks, axis=0))
    return outputs[0] if heads == 1 else T.concat(outputs, axis=1)


@pytest.fixture(params=["threaded", "inline"])
def attention_thread(request, monkeypatch):
    """The worker normalises every score block, or there is no worker."""
    if request.param == "threaded":
        request.getfixturevalue("threaded_attention")
    else:
        monkeypatch.setattr(ops, "_WORKER", None)
    return request.param


@pytest.mark.parametrize("several_blocks", [False, True], ids=["one_block", "ragged_blocks"])
@pytest.mark.parametrize("heads", [1, 2, 4, 8])
def test_attention_matches_the_taped_composition_byte_for_byte(
        heads, several_blocks, attention_thread, monkeypatch):
    n, dm = 200, 16
    if several_blocks:  # blocks of 64 query rows, the last one of 8
        monkeypatch.setattr(cemsa, "SCORE_BLOCK_BYTES", 64 * n * 4)
    rng = np.random.default_rng(heads)
    arrays = rng.normal(size=(3, n, dm)).astype(np.float32)
    weight = Tensor(rng.normal(size=(n, dm)).astype(np.float32))

    def run(attend):
        q, k, v = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = attend(q, k, v, heads)
        T.sum_all(T.mul(out, weight)).backward()
        return out.data, q.grad, k.grad, v.grad

    fused, taped = run(multi_head_attention), run(taped_attention)
    # a head's dK and dV are summed over its blocks in the taped walk's
    # order, so the gradients hold their bytes at several blocks too
    for name, a, b in zip(("out", "dq", "dk", "dv"), fused, taped):
        assert a.dtype == np.float32 and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("shapes, heads, problem", [
    (((5, 4), (5, 4), (5, 4)), 0, "0 heads do not split 4 channels"),
    (((5, 4), (5, 4), (5, 4)), -2, "-2 heads do not split 4 channels"),
    (((5, 4), (5, 4), (5, 4)), 3, "3 heads do not split 4 channels"),
    (((5, 4), (5, 6), (5, 4)), 2, "k and v must have q's 4 channels"),
    (((5, 4), (5, 4), (5, 6)), 2, "k and v must have q's 4 channels"),
    (((5, 4), (6, 4), (5, 4)), 2, "k and v must have one token count"),
], ids=["0_heads", "negative_heads", "heads_not_dividing", "k_width", "v_width",
        "token_counts"])
def test_attention_refuses_inconsistent_operands(shapes, heads, problem):
    q, k, v = (Tensor(np.ones(shape, np.float32)) for shape in shapes)
    named = (f"q {shapes[0]}, k {shapes[1]}, v {shapes[2]}: {problem}"
             .replace("(", r"\(").replace(")", r"\)"))
    with pytest.raises(ValueError, match=named):
        multi_head_attention(q, k, v, heads)


def test_attention_in_row_blocks_matches_the_oracle(monkeypatch):
    # 16 x 16 x 9 tokens: at float64 each head's rows span 11 score blocks,
    # and the last one is ragged
    n = 16 * 16 * 9
    rows = SCORE_BLOCK_BYTES // (n * 8)
    assert 1 < rows < n and n % rows
    q, k, v = np.random.default_rng(17).normal(size=(3, n, 8))

    def attend():
        return multi_head_attention(Tensor(q, dtype=np.float64),
                                    Tensor(k, dtype=np.float64),
                                    Tensor(v, dtype=np.float64), heads=2).data

    out = attend()
    # the direct-formula oracle is slow, so it sees both edges of every
    # block and the whole ragged block
    probe = np.unique(np.r_[0:n:rows, rows - 1:n:rows, n - n % rows:n])
    ref = attention_reference(q[probe], k, v, heads=2)
    assert np.max(np.abs(out[probe] - ref)) < 1e-5
    # every row against the same ops with the whole score matrix in one block
    monkeypatch.setattr(cemsa, "SCORE_BLOCK_BYTES", n * n * 8)
    np.testing.assert_allclose(out, attend(), rtol=0, atol=1e-12)


def test_attention_in_row_blocks_gradcheck():
    # 8 x 16 x 9 tokens keep each finite difference cheap: three blocks of
    # 455 rows at float64, the last one ragged
    n = 8 * 16 * 9
    assert -(-n // (SCORE_BLOCK_BYTES // (n * 8))) == 3
    rng = np.random.default_rng(18)
    leaves = {name: rng.normal(size=(n, 8)) for name in "qkv"}
    weight = rng.normal(size=(n, 8))

    def build(lv):
        out = multi_head_attention(lv["q"], lv["k"], lv["v"], heads=2)
        return T.sum_all(T.mul(out, Tensor(weight, dtype=out.dtype)))

    rep = T.grad_check(build, leaves, coords_per_leaf=6,
                       rng=np.random.default_rng(0), wide=True)
    assert rep.max_err() < 1e-6, rep


def test_block_identity_when_all_weights_zero():
    cfg = toy_cfg()
    bag, p = build_block(cfg)
    for name, tns in bag.items():
        tns.data[:] = 0.0
    rng = np.random.default_rng(9)
    x = rng.normal(size=(27, 8)).astype(np.float32)
    out = cemsa_block(Tensor(x), cfg, p)
    np.testing.assert_array_equal(out.data, x)


def test_block_preserves_shape():
    cfg = toy_cfg(shape=(2, 3, 4), dim=8, heads=4, s=5)
    bag, p = build_block(cfg, seed=10)
    x = np.random.default_rng(11).normal(size=(24, 8)).astype(np.float32)
    assert cemsa_block(Tensor(x), cfg, p).shape == (24, 8)


def test_block_not_permutation_equivariant():
    # convolutional projections encode token position, so permuting tokens
    # must not commute with the block
    cfg = toy_cfg()
    bag, p = build_block(cfg, seed=12)
    randomize(bag, seed=12)
    rng = np.random.default_rng(13)
    x = rng.normal(size=(27, 8)).astype(np.float32)
    perm = rng.permutation(27)
    out_then_perm = cemsa_block(Tensor(x), cfg, p).data[perm]
    perm_then_out = cemsa_block(Tensor(x[perm]), cfg, p).data
    assert np.max(np.abs(out_then_perm - perm_then_out)) > 1e-3


def test_block_gradcheck():
    from symtrans.cemsa import bind_cemsa_params

    cfg = toy_cfg()
    bag, _ = build_block(cfg, seed=14)
    randomize(bag, seed=14)
    rng = np.random.default_rng(15)
    leaves = {"x": rng.normal(size=(27, 8))}
    leaves.update({name: tns.data.copy() for name, tns in bag.items()})

    def build(lv):
        pp = bind_cemsa_params(cfg, "blk", lv)
        out = cemsa_block(lv["x"], cfg, pp)
        return T.mean_all(T.mul(out, out))

    # composite-graph tolerance: truncation through the stacked layer norms
    # dominates, so the whole block is held to 1e-4 in both precisions
    rep = T.grad_check(build, leaves, coords_per_leaf=3,
                       rng=np.random.default_rng(0), wide=True)
    assert rep.max_err() < 1e-4, rep
    rep32 = T.grad_check(build, leaves, coords_per_leaf=3,
                         rng=np.random.default_rng(0), wide=False)
    assert rep32.max_err() < 1e-4, rep32


def test_count_parameters_matches_built_block():
    cfg = toy_cfg(shape=(2, 2, 2), dim=8, heads=2, s=3)
    bag, _ = build_block(cfg)
    assert sum(t.size for _, t in bag.items()) == count_parameters(cfg)


def test_msa_closed_form_count():
    # 4*(8*8+8) + (8*32+32) + (32*8+8) = 840 for the attn+FFN part at dim 8,
    # plus 4*8 for the two layer norms
    assert msa_count_parameters(8) == 840 + 4 * 8


def test_cemsa_fewer_params_than_msa_at_large_dim_small_kernel():
    for dim in (32, 48, 64, 96, 192):
        cfg = CemsaConfig(dim=dim, heads=2, dw_kernel=3,
                          spatial_shape=(4, 4, 4))
        assert count_parameters(cfg) < msa_count_parameters(dim), dim


def test_count_flops_positive_and_scales_with_tokens():
    small = CemsaConfig(dim=8, heads=2, dw_kernel=3, spatial_shape=(2, 2, 2))
    big = CemsaConfig(dim=8, heads=2, dw_kernel=3, spatial_shape=(4, 4, 4))
    assert 0 < count_flops(small) < count_flops(big)


def test_counts_match_the_closed_forms():
    # the per-term sums the counts replaced: depthwise trunk, per-channel
    # 1x1x1 conv, three layer norms, the K/V/output projections and the 4x
    # feed-forward pair
    cfg = CemsaConfig(dim=16, heads=4, dw_kernel=5, spatial_shape=(6, 5, 4))
    d, s, n = cfg.dim, cfg.kernel, cfg.tokens
    params = ((d * s ** 3 + d) + (d + d) + 6 * d + 3 * (d * d + d)
              + (4 * d * d + 4 * d) + (d * 4 * d + d))
    macs = (n * d * s ** 3 + n * d + 2 * n * d * d + 2 * n * n * d
            + n * d * d + 2 * n * d * 4 * d)
    assert count_parameters(cfg) == params
    assert count_flops(cfg) == macs


def test_tokens_volume_round_trip():
    cfg = toy_cfg(shape=(2, 3, 4), dim=8, heads=2)
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(size=(24, 8)).astype(np.float32))
    back = volume_to_tokens(tokens_to_volume(x, cfg.spatial_shape))
    np.testing.assert_array_equal(back.data, x.data)
