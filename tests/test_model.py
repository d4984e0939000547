import dataclasses
import hashlib
from concurrent import futures

import numpy as np
import pytest

from symtrans import model
from symtrans import tensor as T
from symtrans.cemsa import LayerNormParams, volume_to_tokens
from symtrans.configio import ConfigError, from_dict
from symtrans.losses import LossConfig, total_loss
from symtrans.model import (
    CheckpointError,
    DeconvParams,
    ExpandParams,
    ModelConfig,
    _fuse_volumes,
    bind_model_params,
    conv_depths,
    deconv_upsample,
    forward,
    init_model_params,
    load_checkpoint,
    model_count_flops,
    model_count_parameters,
    model_param_shapes,
    patch_expand,
    save_checkpoint,
    transformer_depths,
)
from symtrans.oracles import conv3d_reference
from symtrans.ops import Conv3dParams, LinearParams, conv3d
from symtrans.tensor import Tensor

from conftest import closure_values, graph_nodes, held_arrays


def tiny_cfg(**kw):
    base = dict(input_shape=(16, 16, 16), base_dim=8,
                encoder_depths=(1, 1, 1), decoder_depths=(1, 1, 1))
    base.update(kw)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="divisible by 16"):
        ModelConfig(input_shape=(20, 16, 16))
    with pytest.raises(ValueError, match="base_dim"):
        ModelConfig(base_dim=6)
    with pytest.raises(ValueError, match="heads"):
        ModelConfig(stage_heads=(3, 4, 8))
    with pytest.raises(ValueError, match="placement"):
        ModelConfig(placement="everywhere")
    with pytest.raises(ValueError, match="mode"):
        ModelConfig(mode="rigid")
    # zero or negative sizes that the divisibility checks alone let through
    with pytest.raises(ValueError, match="positive"):
        ModelConfig(input_shape=(-16, 16, 16))
    with pytest.raises(ValueError, match="base_dim"):
        ModelConfig(base_dim=0)
    with pytest.raises(ValueError, match="heads 0"):
        ModelConfig(stage_heads=(2, 4, 0))
    # non-integral or non-numeric sizes, which int() used to truncate or parse
    with pytest.raises(ValueError, match=r"input_shape\[0\] must be an integer"):
        ModelConfig(input_shape=(32.5, 32, 32))
    with pytest.raises(ValueError, match="encoder_depths must be a list"):
        ModelConfig(encoder_depths="111")


def test_default_depths_total_ten():
    cfg = ModelConfig()
    assert sum(cfg.encoder_depths) + sum(cfg.decoder_depths) == 10


def test_stage_geometry():
    cfg = ModelConfig(input_shape=(32, 32, 32), base_dim=8)
    assert cfg.stage_dims == (8, 16, 32)
    assert cfg.stage_shapes() == ((8, 8, 8), (4, 4, 4), (2, 2, 2))
    assert cfg.half_shape() == (16, 16, 16)


# Patch embedding is the stride-2 embed conv, read as tokens; odd extents
# never reach it, since ModelConfig requires extents divisible by 16
# (test_config_validation).

def test_patch_embed_token_count():
    # 8^3 volume, stride-2 kernel-3 conv: N = (D/2)(H/2)(W/2) = 64 tokens
    rng = np.random.default_rng(0)
    vol = Tensor(rng.normal(size=(4, 8, 8, 8)).astype(np.float32))
    w = Tensor(rng.normal(size=(6, 4, 3, 3, 3)).astype(np.float32) * 0.1)
    b = Tensor(np.zeros(6, np.float32))
    tokens = volume_to_tokens(conv3d(vol, Conv3dParams(w, b, stride=2)))
    assert tokens.shape == (64, 6)


def test_patch_embed_values_vs_conv_oracle():
    rng = np.random.default_rng(1)
    vol = rng.normal(size=(2, 4, 4, 4))
    w = rng.normal(size=(3, 2, 3, 3, 3))
    b = rng.normal(size=3)
    p = Conv3dParams(Tensor(w, dtype=np.float64), Tensor(b, dtype=np.float64), stride=2)
    tokens = volume_to_tokens(conv3d(Tensor(vol, dtype=np.float64), p))
    ref = conv3d_reference(vol, w, b, stride=2, padding=1)
    np.testing.assert_allclose(tokens.data, ref.reshape(3, 8).T, atol=1e-9)


def _unit_norm(dim):
    # patch_expand leaves its norm to the decoder; the slot is still required
    return LayerNormParams(Tensor(np.ones(dim, np.float32)),
                           Tensor(np.zeros(dim, np.float32)))


def _identity_expand(c_in):
    # lin1 replicates channel 0 into every slot; lin2 sums its inputs
    w1 = np.zeros((2 * c_in, c_in), np.float32)
    w1[:, 0] = 1.0
    w2 = np.ones((c_in // 2, c_in // 4), np.float32)
    return ExpandParams(
        lin1=LinearParams(Tensor(w1), Tensor(np.zeros(2 * c_in, np.float32))),
        lin2=LinearParams(Tensor(w2), Tensor(np.zeros(c_in // 2, np.float32))),
        norm=_unit_norm(c_in // 2),
    )


def test_patch_expand_shape_contract():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(8, 8)).astype(np.float32))
    p = ExpandParams(
        lin1=LinearParams(Tensor(rng.normal(size=(16, 8)), dtype=np.float32),
                          Tensor(np.zeros(16, np.float32))),
        lin2=LinearParams(Tensor(rng.normal(size=(4, 2)), dtype=np.float32),
                          Tensor(np.zeros(4, np.float32))),
        norm=_unit_norm(4),
    )
    out = patch_expand(x, (2, 2, 2), p)
    assert out.shape == (64, 4)


def test_patch_expand_replicates_blocks_under_structured_maps():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 4)).astype(np.float32)
    out = patch_expand(Tensor(x), (2, 2, 2), _identity_expand(4))
    # every coarse voxel's 2x2x2 block carries its channel-0 value
    vol = out.data.T.reshape(2, 4, 4, 4)
    coarse = x[:, 0].reshape(2, 2, 2)
    for d in range(2):
        for h in range(2):
            for w in range(2):
                block = vol[:, 2 * d : 2 * d + 2, 2 * h : 2 * h + 2,
                            2 * w : 2 * w + 2]
                np.testing.assert_allclose(block, coarse[d, h, w], atol=1e-6)


def test_patch_expand_channel_divisibility():
    x = Tensor(np.zeros((8, 6), np.float32))
    with pytest.raises(ValueError, match="divisible by 4"):
        patch_expand(x, (2, 2, 2), _identity_expand(4))


def wide(data):
    return Tensor(np.asarray(data), dtype=T.WIDE)


def test_deconv_upsample_doubles_extents_and_matches_manual():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 3, 3))
    w = rng.normal(size=(2, 4, 2, 2, 2))
    b = rng.normal(size=4)
    out = deconv_upsample(wide(x), DeconvParams(wide(w), wide(b)))
    assert out.shape == (4, 6, 6, 6)
    expect = np.zeros((4, 6, 6, 6))
    for i in range(2):
        for o in range(4):
            for zd in range(3):
                for zh in range(3):
                    for zw in range(3):
                        for a in range(2):
                            for bb in range(2):
                                for c in range(2):
                                    expect[o, 2 * zd + a, 2 * zh + bb, 2 * zw + c] += (
                                        w[i, o, a, bb, c] * x[i, zd, zh, zw]
                                    )
    expect += b[:, None, None, None]
    assert np.max(np.abs(out.data - expect)) < 1e-10


def test_deconv_upsample_gradcheck():
    rng = np.random.default_rng(21)
    x0 = rng.normal(size=(2, 3, 3, 3))
    w0 = rng.normal(size=(2, 3, 2, 2, 2)) * 0.3
    b0 = rng.normal(size=3) * 0.3

    def build(lv):
        out = deconv_upsample(lv["x"], DeconvParams(lv["w"], lv["b"]))
        return T.mean_all(T.mul(out, out))

    rep = T.grad_check(build, {"x": x0, "w": w0, "b": b0}, wide=True,
                       coords_per_leaf=6, rng=np.random.default_rng(2))
    assert rep.max_err() < 1e-6, rep


@pytest.mark.parametrize("x_shape,w_shape", [
    ((2, 3, 3), (2, 4, 2, 2, 2)),  # not a (C, D, H, W) volume
    ((3, 3, 3, 3), (2, 4, 2, 2, 2)),  # cin != weight.shape[0]
    ((2, 3, 3, 3), (2, 4, 3, 3, 3)),  # not a (2, 2, 2) kernel
])
def test_deconv_upsample_shape_checks(x_shape, w_shape):
    p = DeconvParams(Tensor(np.zeros(w_shape, np.float32)),
                     Tensor(np.zeros(w_shape[1], np.float32)))
    with pytest.raises(ValueError, match="incompatible"):
        deconv_upsample(Tensor(np.zeros(x_shape, np.float32)), p)


def test_patch_expand_gradcheck():
    rng = np.random.default_rng(4)
    leaves = {
        "x": rng.normal(size=(8, 4)),
        "w1": rng.normal(size=(8, 4)) * 0.4,
        "b1": rng.normal(size=8) * 0.1,
        "w2": rng.normal(size=(2, 1)) * 0.4,
        "b2": rng.normal(size=2) * 0.1,
    }

    def build(lv):
        p = ExpandParams(lin1=LinearParams(lv["w1"], lv["b1"]),
                         lin2=LinearParams(lv["w2"], lv["b2"]), norm=_unit_norm(2))
        out = patch_expand(lv["x"], (2, 2, 2), p)
        return T.mean_all(T.mul(out, out))

    rep = T.grad_check(build, leaves, wide=True, coords_per_leaf=6,
                       rng=np.random.default_rng(5))
    assert rep.max_err() < 1e-4, rep


def test_fuse_skip_concat_dims_and_composition():
    rng = np.random.default_rng(6)
    dec = rng.normal(size=(8, 3)).astype(np.float32)
    enc = rng.normal(size=(8, 5)).astype(np.float32)
    w = rng.normal(size=(4, 8, 3, 3, 3)).astype(np.float32) * 0.2
    b = rng.normal(size=4).astype(np.float32) * 0.1
    p = Conv3dParams(Tensor(w), Tensor(b))
    dec_vol = dec.T.reshape(3, 2, 2, 2)
    enc_vol = enc.T.reshape(5, 2, 2, 2)
    out = _fuse_volumes(Tensor(dec_vol), Tensor(enc_vol), p)
    assert out.shape == (4, 2, 2, 2)
    # manual composition oracle
    ref = conv3d_reference(np.concatenate([dec_vol, enc_vol]), w, b, stride=1,
                           padding=1)
    ref = np.where(ref >= 0, ref, 0.2 * ref)
    np.testing.assert_allclose(out.data, ref, atol=1e-5)


def test_fuse_skip_spatial_mismatch():
    p = Conv3dParams(Tensor(np.zeros((2, 4, 3, 3, 3), np.float32)),
                     Tensor(np.zeros(2, np.float32)))
    with pytest.raises(ValueError, match="spatial mismatch"):
        _fuse_volumes(Tensor(np.zeros((2, 2, 2, 2), np.float32)),
                      Tensor(np.zeros((2, 2, 2, 3), np.float32)), p)


def test_zero_encoder_tokens_fuse_depends_on_decoder_only():
    rng = np.random.default_rng(7)
    dec = rng.normal(size=(8, 2)).astype(np.float32)
    w = np.zeros((2, 4, 3, 3, 3), np.float32)
    w[:, :2, 1, 1, 1] = np.eye(2)  # identity on the decoder half of channels
    p = Conv3dParams(Tensor(w), Tensor(np.zeros(2, np.float32)))
    dec_vol = dec.T.reshape(2, 2, 2, 2)
    out = _fuse_volumes(Tensor(dec_vol), Tensor(np.zeros((2, 2, 2, 2), np.float32)), p)
    np.testing.assert_allclose(out.data, np.where(dec_vol >= 0, dec_vol, 0.2 * dec_vol),
                               atol=1e-6)


def test_forward_output_shape_32():
    cfg = ModelConfig(input_shape=(32, 32, 32), base_dim=8,
                      encoder_depths=(1, 1, 1), decoder_depths=(1, 1, 1))
    bag, params = init_model_params(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    m = Tensor(rng.normal(size=(1, 32, 32, 32)).astype(np.float32))
    f = Tensor(rng.normal(size=(1, 32, 32, 32)).astype(np.float32))
    out = forward(m, f, params, cfg)
    assert out.shape == (3, 32, 32, 32)


def test_forward_initial_field_near_identity():
    cfg = tiny_cfg()
    bag, params = init_model_params(cfg, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    m = Tensor(rng.normal(size=(1, 16, 16, 16)).astype(np.float32))
    f = Tensor(rng.normal(size=(1, 16, 16, 16)).astype(np.float32))
    out = forward(m, f, params, cfg)
    assert np.max(np.abs(out.data)) < 0.01


def test_forward_shape_mismatch():
    cfg = tiny_cfg()
    bag, params = init_model_params(cfg, np.random.default_rng(4))
    with pytest.raises(ValueError, match="moving"):
        forward(Tensor(np.zeros((1, 32, 32, 32), np.float32)),
                Tensor(np.zeros((1, 16, 16, 16), np.float32)), params, cfg)


def test_token_path_scale_is_set_by_layer_norms():
    # A layer norm ends every patch embedding and patch expanding, so the
    # scale of their weights reaches neither the stages nor the field. The
    # weights are first drawn at an ordinary scale, far from the norms' eps.
    cfg = tiny_cfg()
    bag, params = init_model_params(cfg, np.random.default_rng(11))
    rng = np.random.default_rng(12)
    scaled = [name for name in bag
              if name.startswith("enc") and ".embed." in name
              or name.startswith("dec") and ".lin2." in name]
    assert len(scaled) == 2 * (3 + 4)
    for name in scaled:
        t = bag[name]
        t.data = rng.normal(0, 0.3, size=t.shape).astype(t.dtype)
    m = Tensor(rng.normal(size=(1, 16, 16, 16)).astype(np.float32))
    f = Tensor(rng.normal(size=(1, 16, 16, 16)).astype(np.float32))
    base = forward(m, f, params, cfg).data
    for name in scaled:
        bag[name].data = bag[name].data * np.float32(8.0)
    out = forward(m, f, params, cfg).data
    assert np.max(np.abs(out - base)) < 1e-3 * np.max(np.abs(base))


def test_forward_deterministic():
    cfg = tiny_cfg()
    bag, params = init_model_params(cfg, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    m = Tensor(rng.normal(size=(1, 16, 16, 16)).astype(np.float32))
    f = Tensor(rng.normal(size=(1, 16, 16, 16)).astype(np.float32))
    a = forward(m, f, params, cfg).data
    b = forward(m, f, params, cfg).data
    np.testing.assert_array_equal(a, b)


def test_ablation_variants():
    base = tiny_cfg()
    assert dataclasses.replace(base, placement="symmetric") == base
    bottom = dataclasses.replace(base, placement="bottom_only")
    enc_tf, dec_tf = transformer_depths(bottom)
    assert enc_tf == (0, 0, 6) and dec_tf == (0, 0, 0)
    e = dataclasses.replace(base, placement="encoder_only")
    enc_tf, dec_tf = transformer_depths(e)
    assert enc_tf == (1, 1, 1) and dec_tf == (0, 0, 0)
    assert conv_depths(e) == ((0, 0, 0), (1, 1, 1))
    d = dataclasses.replace(base, placement="decoder_only")
    enc_tf, dec_tf = transformer_depths(d)
    assert enc_tf == (0, 0, 0) and dec_tf == (1, 1, 1)
    with pytest.raises(ValueError, match="placement"):
        dataclasses.replace(base, placement="sideways")


def test_ablation_default_depths_bottom_stacks_ten():
    cfg = ModelConfig()
    enc_tf, dec_tf = transformer_depths(dataclasses.replace(cfg, placement="bottom_only"))
    assert enc_tf[2] == 10
    assert sum(enc_tf) + sum(dec_tf) == 10


def test_all_placements_same_output_shape():
    rng = np.random.default_rng(7)
    m = Tensor(rng.normal(size=(1, 16, 16, 16)).astype(np.float32))
    f = Tensor(rng.normal(size=(1, 16, 16, 16)).astype(np.float32))
    shapes = set()
    for placement in ("symmetric", "encoder_only", "decoder_only", "bottom_only"):
        cfg = tiny_cfg(placement=placement)
        bag, params = init_model_params(cfg, np.random.default_rng(8))
        out = forward(m, f, params, cfg)
        shapes.add(out.shape)
        # every declared parameter is bound into the forward pass. Gradients
        # may be exactly zero: the one-token 1/16 stage gives proj_k none.
        T.mean_all(T.mul(out, out)).backward()
        for name, t in bag.items():
            assert t.grad is not None, (placement, name)
            assert np.all(np.isfinite(t.grad)), (placement, name)
    assert shapes == {(3, 16, 16, 16)}


# sha256 over (name, float32 bytes) of every parameter in declaration order,
# from init_model_params(tiny_cfg(placement=p), default_rng(8)). A change
# that moves one changes the names, order, shapes or init draws, which is a
# behaviour change: it must say so and update the digest.
INIT_DIGESTS = {
    "symmetric": "0d98634af16977ba6f64eda7afbe2aecd4f28b45c3ce08fc5d63cf4326235339",
    "encoder_only": "093ce959f797bec2e7226d3fab7208d2036fe63d8b24b28440bbc151c3a68cf5",
    "decoder_only": "eb45582cc63b81a26d93e485d485d7084654df683ca9a10639896a9253ac68ee",
    "bottom_only": "6314e0fd6a7cedda0c327a6dbdd641adf8b73109bad29b81a3905cb764600faf",
}


@pytest.mark.parametrize("placement", sorted(INIT_DIGESTS))
def test_declaration_and_init_bytes_are_pinned(placement):
    bag, _ = init_model_params(tiny_cfg(placement=placement),
                               np.random.default_rng(8))
    digest = hashlib.sha256()
    for name, t in bag.items():
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(t.data, np.float32).tobytes())
    assert digest.hexdigest() == INIT_DIGESTS[placement]


def test_count_parameters_additive_and_matches_bag():
    cfg = tiny_cfg()
    bag, _ = init_model_params(cfg, np.random.default_rng(9))
    total = model_count_parameters(cfg)
    assert total == sum(t.size for _, t in bag.items())
    by_module = model_count_parameters(cfg, by_module=True)
    assert sum(by_module.values()) == total


def test_count_parameters_monotone_in_base_dim():
    a = model_count_parameters(tiny_cfg(base_dim=8))
    b = model_count_parameters(tiny_cfg(base_dim=16))
    assert b > a


def test_count_flops_additive():
    cfg = tiny_cfg()
    by_module = model_count_flops(cfg, by_module=True)
    assert sum(by_module.values()) == model_count_flops(cfg)
    assert model_count_flops(cfg) > 0


def test_paper_scale_parameter_total_in_plausible_band():
    cfg = ModelConfig(input_shape=(96, 112, 96), base_dim=48)
    total = model_count_parameters(cfg)
    assert 5_000_000 < total < 50_000_000


def test_model_config_round_trip_strict():
    cfg = tiny_cfg(placement="bottom_only", mode="diffeomorphic")
    import dataclasses as dc
    d = dc.asdict(cfg)
    back = from_dict(ModelConfig, d)
    assert back == cfg
    d["typo_field"] = 1
    with pytest.raises(ConfigError, match="typo_field"):
        from_dict(ModelConfig, d)


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_cfg()
    bag, _ = init_model_params(cfg, np.random.default_rng(10))
    path = tmp_path / "model.symt"
    save_checkpoint(path, cfg, bag)
    cfg2, bag2, params2, _ = load_checkpoint(path)
    assert cfg2 == cfg
    for (n1, t1), (n2, t2) in zip(bag.items(), bag2.items()):
        assert n1 == n2
        np.testing.assert_array_equal(t1.data, t2.data)
    # byte-identical rewrite
    path2 = tmp_path / "model2.symt"
    save_checkpoint(path2, cfg2, bag2)
    assert path.read_bytes() == path2.read_bytes()


def test_bag_is_a_dict_of_float32_leaves_in_declaration_order(tmp_path):
    cfg = tiny_cfg()
    bag, _ = init_model_params(cfg, np.random.default_rng(10))
    save_checkpoint(tmp_path / "model.symt", cfg, bag)
    for got in (bag, load_checkpoint(tmp_path / "model.symt")[1]):
        assert type(got) is dict
        assert list(got) == list(model_param_shapes(cfg))
        assert all(t.dtype == np.float32 and t.requires_grad for t in got.values())


def test_duplicate_parameter_name_refused_for_every_source(tmp_path, monkeypatch):
    cfg = tiny_cfg()
    bag, _ = init_model_params(cfg, np.random.default_rng(10))
    save_checkpoint(tmp_path / "model.symt", cfg, bag)
    cemsa_params = model.cemsa_params

    def declared_twice(blk_cfg, param):  # each block declares its trunk again
        p = cemsa_params(blk_cfg, param)
        param("dw.weight", (1,), "zeros")
        return p

    monkeypatch.setattr(model, "cemsa_params", declared_twice)
    for walk in (lambda: model_param_shapes(cfg),
                 lambda: init_model_params(cfg, np.random.default_rng(10)),
                 lambda: bind_model_params(cfg, bag),
                 lambda: load_checkpoint(tmp_path / "model.symt")):
        with pytest.raises(ValueError,
                           match="duplicate parameter name 'enc1.block0.dw.weight'"):
            walk()


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.symt"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(p)


def test_skip_shapes_assert_at_construction():
    # decoder/encoder skip joins must agree spatially for every valid config
    for shape in ((16, 16, 16), (16, 32, 16)):
        cfg = ModelConfig(input_shape=shape, base_dim=8,
                          encoder_depths=(1, 1, 1), decoder_depths=(1, 1, 1))
        sh = cfg.stage_shapes()
        assert sh[0] == tuple(e // 4 for e in shape)
        assert sh[2] == tuple(e // 16 for e in shape)


def desk_step_loss(placement, mode):
    """The loss of one 16^3 desk-model training step, with its graph."""
    cfg = tiny_cfg(placement=placement)
    _, params = init_model_params(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    moving, fixed = (Tensor(rng.random((1,) + cfg.input_shape).astype(np.float32))
                     for _ in range(2))
    raw = forward(moving, fixed, params, cfg)
    return total_loss(moving, fixed, raw, LossConfig(), mode)[0]


@pytest.mark.parametrize("mode", ["displacement", "diffeomorphic"])
@pytest.mark.parametrize("placement", model.PLACEMENTS)
def test_no_rule_of_a_desk_step_holds_a_tensor(placement, mode):
    # a rule saves arrays and flags: a Tensor in its closure would keep its
    # value alive until the backward whether or not the rule reads it
    nodes = graph_nodes(desk_step_loss(placement, mode))
    assert len(nodes) > 100
    holders = [node.rule.__qualname__ for node in nodes
               if any(isinstance(value, Tensor) for value in closure_values(node.rule))]
    assert holders == []


@pytest.mark.parametrize("mode", ["displacement", "diffeomorphic"])
def test_no_rule_of_a_desk_step_returns_an_array_it_saved(mode, threaded_sample):
    # the walk adopts a fresh gradient and adds into it in place, so a rule
    # that returned an array it saved would see that array change
    loss = desk_step_loss("symmetric", mode)
    nodes = graph_nodes(loss)
    ran = []

    def checked(rule):
        def run(g):
            saved = list(held_arrays(rule).values())
            grads = rule(g)
            for got in grads:
                got = got.result() if isinstance(got, futures.Future) else got
                if got is not None:
                    assert not any(np.shares_memory(got, a) for a in saved), rule
            ran.append(rule)
            return grads
        return run

    for node in nodes:
        node.rule = checked(node.rule)
    loss.backward()
    assert len(ran) == len(nodes)
