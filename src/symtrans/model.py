"""The symmetric U-shaped registration network.

Two conv levels (full and half resolution) feed three transformer stages at
1/4, 1/8, 1/16 resolution in the encoder; the decoder mirrors them with patch
expanding, skip-connection fusion, and transformer stages, then two conv
decode levels bring features back to full resolution for the 3-channel flow
head. Ablation placements swap transformer stages for plain conv blocks (and
patch expanding for transposed convs) in either half, or stack every
transformer block at the 1/16 bottleneck.

The token path is normalized where its scale is set by a learned map: a layer
norm over channels follows every patch embedding and every patch expanding
(as in overlapping patch embedding and Swin-style patch expanding). Without
them, the scale of the stage inputs follows the embedding and expanding
weights and the intensity of the input. At init that scale is about 1e-3
at 1/16. Once Adam has grown those weights, it is large enough that single
pairs push out rough fields several times the usual size.

Stage dims are C, 2C, 4C. Parameters live in a bag: a plain,
insertion-ordered ``dict`` of name -> float32 leaf Tensor, in declaration
order, which checkpoints, Adam moments and gradient checks all follow. One
walk declares every parameter, refusing a name declared twice, and puts the
tensor a source gives back into the slot the forward pass reads; drawing a
fresh init, reading a checkpoint and binding an existing name -> Tensor map
are its three sources.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from collections import OrderedDict, namedtuple
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .binio import Reader, atomic_write, write_record
from .cemsa import (
    CemsaConfig,
    LayerNormParams,
    cemsa_block,
    cemsa_params,
    count_flops,
    init_array,
    tokens_to_volume,
    volume_to_tokens,
)
from .configio import from_dict, integer, sequence, to_canonical_json
from .ops import Conv3dParams, LinearParams, conv3d, linear
from .tensor import Tensor

PLACEMENTS = ("symmetric", "encoder_only", "decoder_only", "bottom_only")
MODES = ("displacement", "diffeomorphic")

CHECKPOINT_MAGIC = b"SYMT"
# 2: layer norms after embedding/expanding; 3: no kv_stride; 4: the patch
# kernel, feed-forward width and LeakyReLU slope left the config; 5: Adam's
# step and moments, and the CRC32 trailer
CHECKPOINT_VERSION = 5

# kernel extent of every patch embedding; it pads by PATCH_KERNEL // 2, which
# keeps the stride-2 token grid because the extent is odd
PATCH_KERNEL = 3


@dataclass
class ModelConfig:
    input_shape: tuple = (32, 32, 32)
    base_dim: int = 8
    encoder_depths: tuple = (2, 2, 2)
    decoder_depths: tuple = (2, 1, 1)
    stage_kernels: tuple = (24, 16, 12)
    stage_heads: tuple = (2, 4, 8)
    placement: str = "symmetric"
    mode: str = "displacement"

    def __post_init__(self):
        count = functools.partial(integer, minimum=0)
        size = functools.partial(integer, minimum=1)
        self.input_shape = sequence("input_shape", self.input_shape, integer, 3)
        self.encoder_depths = sequence("encoder_depths", self.encoder_depths, count, 3)
        self.decoder_depths = sequence("decoder_depths", self.decoder_depths, count, 3)
        self.stage_kernels = sequence("stage_kernels", self.stage_kernels, size, 3)
        self.stage_heads = sequence("stage_heads", self.stage_heads, integer, 3)
        self.base_dim = integer("base_dim", self.base_dim)
        for e in self.input_shape:
            if e <= 0 or e % 16:
                raise ValueError(f"input extents must be positive and divisible "
                                 f"by 16, got {self.input_shape}")
        if self.base_dim <= 0 or self.base_dim % 4:
            raise ValueError(f"base_dim must be a positive multiple of 4, got "
                             f"{self.base_dim}")
        for i, h in enumerate(self.stage_heads):
            if h <= 0 or (self.base_dim * 2 ** i) % h:
                raise ValueError(
                    f"stage {i} dim {self.base_dim * 2 ** i} not divisible by "
                    f"heads {h}"
                )
        if self.placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def stage_dims(self):
        return tuple(self.base_dim * 2 ** i for i in range(3))

    def stage_shapes(self):
        d, h, w = self.input_shape
        return tuple((d >> (2 + i), h >> (2 + i), w >> (2 + i)) for i in range(3))

    def half_shape(self):
        d, h, w = self.input_shape
        return (d // 2, h // 2, w // 2)

    def cemsa_config(self, stage: int) -> CemsaConfig:
        return CemsaConfig(
            dim=self.stage_dims[stage],
            heads=self.stage_heads[stage],
            dw_kernel=self.stage_kernels[stage],
            spatial_shape=self.stage_shapes()[stage],
        )


def transformer_depths(cfg: ModelConfig):
    """Effective CEMSA depth per (encoder, decoder) stage after placement."""
    enc = list(cfg.encoder_depths)
    dec = list(cfg.decoder_depths)
    total = sum(enc) + sum(dec)
    if cfg.placement == "symmetric":
        return tuple(enc), tuple(dec)
    if cfg.placement == "encoder_only":
        return tuple(enc), (0, 0, 0)
    if cfg.placement == "decoder_only":
        return (0, 0, 0), tuple(dec)
    return (0, 0, total), (0, 0, 0)  # bottom_only


def conv_depths(cfg: ModelConfig):
    """Conv block depth per stage: conv variants match the replaced depth."""
    enc_tf, dec_tf = transformer_depths(cfg)
    enc = [0 if tf else d for tf, d in zip(enc_tf, cfg.encoder_depths)]
    dec = [0 if tf else d for tf, d in zip(dec_tf, cfg.decoder_depths)]
    if cfg.placement == "bottom_only":
        enc[2] = 0  # absorbed into the bottom transformer stack
        dec[0] = 0
    return tuple(enc), tuple(dec)


@dataclass
class ExpandParams:
    lin1: LinearParams  # C -> 2C
    lin2: LinearParams  # C/4 -> C/2
    norm: LayerNormParams  # over C/2, applied by the model


@dataclass
class DeconvParams:
    weight: Tensor  # (C_in, C_out, 2, 2, 2)
    bias: Tensor


@dataclass
class EncoderStage:
    embed: Conv3dParams
    embed_norm: LayerNormParams
    blocks: list
    convs: list
    cemsa: CemsaConfig


@dataclass
class DecoderStage:
    fuse: Conv3dParams | None
    blocks: list
    convs: list
    expand: ExpandParams | DeconvParams
    cemsa: CemsaConfig


@dataclass
class SymTransParams:
    """Structured view over the flat parameter bag."""

    stem_conv0: Conv3dParams
    stem_down1: Conv3dParams
    stem_conv1: Conv3dParams
    enc: list
    dec: list
    fuse_half: Conv3dParams
    expand_half: ExpandParams | DeconvParams
    fuse_full: Conv3dParams
    flow: Conv3dParams


# the network walked once: the structured view over whatever the source gave
# back, name -> (shape, init kind) in declaration order, and learnable scalars
# and forward multiply-accumulates per top-level module
_Layout = namedtuple("_Layout", "view shapes params macs")


def _model_layout(cfg: ModelConfig, source) -> _Layout:
    """Declare every parameter in order and bind what ``source`` gives back.

    ``source(name, shape, init_kind)`` is called once per parameter, in
    declaration order, and its return value fills the slot the forward pass
    reads. Call arguments are evaluated left to right, so the order below is
    the declaration order. Every conv pads by ``k // 2``; its stride is given
    where it is declared.

    A weight applied at n positions costs n times its size in MACs: a conv
    runs at its output voxels, a transposed conv and the first patch-expanding
    linear at their input voxels, and the second expanding linear at 8x those.
    Each CEMSA block costs ``cemsa.count_flops``. Biases and norms cost none.
    """
    c = cfg.base_dim
    dims = cfg.stage_dims
    full = math.prod(cfg.input_shape)
    half = math.prod(cfg.half_shape())
    stages = [math.prod(shape) for shape in cfg.stage_shapes()]
    enc_tf, dec_tf = transformer_depths(cfg)
    enc_cv, dec_cv = conv_depths(cfg)
    deconv_dec = cfg.placement in ("encoder_only", "bottom_only")
    shapes, counts, macs = OrderedDict(), OrderedDict(), OrderedDict()

    def tally(name, params, mac):
        top = name.split(".")[0]
        counts[top] = counts.get(top, 0) + params
        macs[top] = macs.get(top, 0) + mac

    def param(name, shape, kind, at=0):
        if name in shapes:
            raise ValueError(f"duplicate parameter name {name!r}")
        shapes[name] = (shape, kind)
        tally(name, math.prod(shape), at * math.prod(shape))
        return source(name, shape, kind)

    def layer(name, shape, kind, at, out_axis=0):  # a weight and its bias
        return (param(f"{name}.weight", shape, kind, at),
                param(f"{name}.bias", (shape[out_axis],), "zeros"))

    def conv(name, cout, cin, kk, at, stride=1, kind="conv"):
        return Conv3dParams(*layer(name, (cout, cin, kk, kk, kk), kind, at), stride)

    def norm(name, dim):
        return LayerNormParams(param(f"{name}.gamma", (dim,), "ones"),
                               param(f"{name}.beta", (dim,), "zeros"))

    def expand(name, cin, at):
        if deconv_dec:
            return DeconvParams(*layer(f"{name}.deconv", (cin, cin // 2, 2, 2, 2),
                                       "conv", at, out_axis=1))
        # trunk upsamplers, not in-block projections: fan-in scaled so the
        # decoder path carries signal from the first iteration
        return ExpandParams(
            lin1=LinearParams(*layer(f"{name}.lin1", (2 * cin, cin), "conv", at)),
            lin2=LinearParams(*layer(f"{name}.lin2", (cin // 2, cin // 4), "conv",
                                     8 * at)),
            norm=norm(f"{name}.norm", cin // 2))

    def block(prefix, blk_cfg):
        tally(prefix, 0, count_flops(blk_cfg))
        return cemsa_params(blk_cfg, lambda rel, shape, kind:
                            param(f"{prefix}.{rel}", shape, kind))

    def stage_blocks(prefix, stage, tf_depth, cv_depth):  # stage fields
        blk_cfg = cfg.cemsa_config(stage)
        return dict(
            blocks=[block(f"{prefix}.block{b}", blk_cfg) for b in range(tf_depth)],
            convs=[conv(f"{prefix}.conv{b}", dims[stage], dims[stage], 3,
                        stages[stage]) for b in range(cv_depth)],
            cemsa=blk_cfg)

    embed_in = (c, dims[0], dims[1])
    enc_names = ("enc1", "enc2", "enc3")
    dec_names = ("dec3", "dec2", "dec1")  # decoder stages, bottom (1/16) upward
    view = SymTransParams(
        stem_conv0=conv("stem.conv0", c // 2, 2, 3, full),
        stem_down1=conv("stem.down1", c, c // 2, 3, half, stride=2),
        stem_conv1=conv("stem.conv1", c, c, 3, half),
        enc=[EncoderStage(
            embed=conv(f"{name}.embed", dims[i], embed_in[i], PATCH_KERNEL, stages[i],
                       stride=2, kind="weight"),
            embed_norm=norm(f"{name}.embed_norm", dims[i]),
            **stage_blocks(name, i, enc_tf[i], enc_cv[i]),
        ) for i, name in enumerate(enc_names)],
        dec=[DecoderStage(
            # the 1/16 stage sits on the bottleneck; the others fuse a
            # skip concatenated onto the expanded decoder volume
            fuse=conv(f"{name}.fuse", dims[stage], dims[stage + 1], 3,
                      stages[stage]) if j else None,
            **stage_blocks(name, stage, dec_tf[j], dec_cv[j]),
            expand=expand(f"{name}.expand", dims[stage], stages[stage]),
        ) for j, (name, stage) in enumerate(zip(dec_names, (2, 1, 0)))],
        fuse_half=conv("dec0.fuse", c, c // 2 + c, 3, half),  # half-res decode
        expand_half=expand("dec0.expand", c, half),
        fuse_full=conv("out.fuse", c // 2, c, 3, full),  # full-res decode
        flow=conv("out.flow", 3, c // 2, 3, full, kind="flow"),
    )
    return _Layout(view, shapes, counts, macs)


def _declare(name, shape, kind):
    """Source for a walk that only declares: every slot is left empty."""
    return None


def _leaf(bag: dict, name: str, array) -> Tensor:
    """Put ``array`` into ``bag`` as a float32 parameter leaf."""
    bag[name] = Tensor(np.asarray(array, dtype=T.STANDARD), requires_grad=True)
    return bag[name]


def model_param_shapes(cfg: ModelConfig) -> "OrderedDict[str, tuple]":
    """Flat name -> (shape, init kind) map, in declaration order."""
    return _model_layout(cfg, _declare).shapes


def bind_model_params(cfg: ModelConfig, tensors) -> SymTransParams:
    """Assemble the structured view over a name -> Tensor mapping."""
    return _model_layout(cfg, lambda name, shape, kind: tensors[name]).view


def init_model_params(cfg: ModelConfig, rng: np.random.Generator):
    """Fresh parameter bag + structured view.

    Conv weights (stem, fusions, conv blocks, transposed convs, the CEMSA
    depthwise trunk and grouped conv) and the patch-expanding linears are
    fan-in scaled normal, std sqrt(2 / fan_in). The patch-embedding convs are
    truncated-normal with std 0.02; the layer norm after each keeps their
    scale from reaching the stage. The CEMSA K projection is truncated-normal
    with std 1/sqrt(dim), and the other transformer linears use std 0.02.
    Biases and layer-norm shifts are zero and layer-norm gains one. The flow
    head starts near zero, so the initial field is near-identity.
    """
    bag = {}
    layout = _model_layout(cfg, lambda name, shape, kind:
                           _leaf(bag, name, init_array(shape, kind, rng)))
    return bag, layout.view


def model_count_parameters(cfg: ModelConfig, by_module: bool = False):
    """Exact learnable-scalar total (optionally grouped by top-level module)."""
    params = _model_layout(cfg, _declare).params
    return params if by_module else sum(params.values())


def model_count_flops(cfg: ModelConfig, by_module: bool = False):
    """Forward-pass MAC count (optionally grouped by top-level module)."""
    macs = _model_layout(cfg, _declare).macs
    return macs if by_module else sum(macs.values())


def patch_expand(x: Tensor, spatial_shape, p: ExpandParams) -> Tensor:
    """Token upsampling: 8x the tokens, half the channels.

    One linear doubles the channel dim, the 2C vector is dealt out as a
    2x2x2 spatial block (channel-major, block offsets in (d, h, w) order),
    and a second linear maps C/4 -> C/2. ``p.norm`` is not applied here; the
    model's decoder applies it to the result.
    """
    n, c_in = x.shape
    if c_in % 4:
        raise ValueError(f"patch_expand needs channels divisible by 4, got {c_in}")
    d, h, w = spatial_shape
    if n != d * h * w:
        raise ValueError(f"patch_expand: {n} tokens vs spatial {spatial_shape}")
    y = _deal_blocks(linear(x, p.lin1), spatial_shape)  # (8N, C/4)
    return linear(y, p.lin2)  # (8N, C/2)


def _deal_blocks(y: Tensor, spatial_shape) -> Tensor:
    """(N, 8C) -> (8N, C): each token's channel-major vector, block offsets
    last in (d, h, w) order, dealt out as its 2x2x2 block of the 2x grid."""
    d, h, w = spatial_shape
    n, c8 = y.shape
    y = T.reshape(y, (d, h, w, c8 // 8, 2, 2, 2))
    y = T.permute(y, (0, 4, 1, 5, 2, 6, 3))  # (d,2,h,2,w,2,c)
    return T.reshape(y, (8 * n, c8 // 8))


def deconv_upsample(vol: Tensor, p: DeconvParams) -> Tensor:
    """Transposed conv with kernel 2, stride 2: exact 2x spatial upsampling.

    Every input voxel paints one 2x2x2 output block and blocks never
    overlap, so the op is one per-voxel matmul with the (in, out*8) weight,
    dealt out as patch expanding deals its first linear, plus the bias.
    """
    cin, cout = p.weight.shape[:2]
    if vol.ndim != 4 or vol.shape[0] != cin or p.weight.shape[2:] != (2, 2, 2):
        raise ValueError(f"deconv_upsample: weight {p.weight.shape} incompatible "
                         f"with (C, D, H, W) input {vol.shape}")
    d, h, w = vol.shape[1:]
    y = T.matmul(volume_to_tokens(vol), T.reshape(p.weight, (cin, 8 * cout)))
    y = T.add_rowvec(_deal_blocks(y, (d, h, w)), p.bias)
    return tokens_to_volume(y, (2 * d, 2 * h, 2 * w))


def _expand_volume(vol: Tensor, p) -> Tensor:
    """Upsample a volume 2x: patch expanding then its layer norm, or a
    transposed conv then LeakyReLU in the conv-variant decoders."""
    if isinstance(p, DeconvParams):
        return T.leaky_relu(deconv_upsample(vol, p))
    c, d, h, w = vol.shape
    tokens = patch_expand(volume_to_tokens(vol), (d, h, w), p)
    tokens = T.layer_norm(tokens, p.norm.gamma, p.norm.beta)
    return tokens_to_volume(tokens, (2 * d, 2 * h, 2 * w))


def _norm_volume(vol: Tensor, p: LayerNormParams) -> Tensor:
    """Layer norm over the channels of every voxel."""
    tokens = T.layer_norm(volume_to_tokens(vol), p.gamma, p.beta)
    return tokens_to_volume(tokens, vol.shape[1:])


def _fuse_volumes(dec_vol: Tensor, enc_vol: Tensor, p: Conv3dParams) -> Tensor:
    if dec_vol.shape[1:] != enc_vol.shape[1:]:
        raise ValueError(
            f"fuse: spatial mismatch {dec_vol.shape} vs {enc_vol.shape}"
        )
    return T.leaky_relu(conv3d(T.concat([dec_vol, enc_vol], axis=0), p))


def _run_stage_blocks(vol: Tensor, stage) -> Tensor:
    """Apply a stage's CEMSA blocks (token form) or conv blocks (volume form)."""
    if stage.blocks:
        tokens = volume_to_tokens(vol)
        for bp in stage.blocks:
            tokens = cemsa_block(tokens, stage.cemsa, bp)
        vol = tokens_to_volume(tokens, stage.cemsa.spatial_shape)
    for cp in stage.convs:
        vol = T.leaky_relu(conv3d(vol, cp))
    return vol


def forward(moving: Tensor, fixed: Tensor, params: SymTransParams,
            cfg: ModelConfig) -> Tensor:
    """Predict the raw 3-channel field (displacement, or velocity in
    diffeomorphic mode) for a moving/fixed volume pair."""
    expected = (1,) + cfg.input_shape
    for name, v in (("moving", moving), ("fixed", fixed)):
        if v.shape != expected:
            raise ValueError(f"{name} volume shape {v.shape} != {expected}")

    x = T.concat([moving, fixed], axis=0)
    skip_full = T.leaky_relu(conv3d(x, params.stem_conv0))
    x = T.leaky_relu(conv3d(skip_full, params.stem_down1))
    skip_half = T.leaky_relu(conv3d(x, params.stem_conv1))

    skips = []
    vol = skip_half
    for i, stage in enumerate(params.enc):
        vol = _norm_volume(conv3d(vol, stage.embed), stage.embed_norm)
        if stage.convs:
            vol = T.leaky_relu(vol)
        vol = _run_stage_blocks(vol, stage)
        skips.append(vol)

    vol = skips[2]
    # 1/16 decoder stage sits right on the bottleneck (no fusion)
    vol = _run_stage_blocks(vol, params.dec[0])
    vol = _expand_volume(vol, params.dec[0].expand)

    for j, enc_skip in ((1, skips[1]), (2, skips[0])):
        stage = params.dec[j]
        vol = _fuse_volumes(vol, enc_skip, stage.fuse)
        vol = _run_stage_blocks(vol, stage)
        vol = _expand_volume(vol, stage.expand)

    vol = _fuse_volumes(vol, skip_half, params.fuse_half)
    vol = _expand_volume(vol, params.expand_half)
    vol = _fuse_volumes(vol, skip_full, params.fuse_full)
    return conv3d(vol, params.flow)


# --- checkpoint serialization -------------------------------------------------

def save_checkpoint(path, cfg: ModelConfig, bag: dict, adam=None):
    """Write magic, version, canonical-JSON config, the parameter tensors in
    declaration order as (name, rank, extents, float32 LE data), then Adam's
    step (u64), a record count (u32) and a (name, m, v) record per parameter.
    ``adam`` is ``(step, m, v)``, the moments by name, or None for step 0,
    whose moments are zeros by definition and get no records. The write is
    atomic, with a CRC32 trailer (see ``binio``)."""
    step, m, v = adam or (0, None, None)
    blob = to_canonical_json(cfg).encode("utf-8")
    with atomic_write(path) as f:
        header = struct.pack("<II", CHECKPOINT_VERSION, len(blob))
        f.write(CHECKPOINT_MAGIC + header + blob)
        for name, tns in bag.items():
            write_record(f, name, tns.data)
        f.write(struct.pack("<QI", step, len(bag) if step else 0))
        for name in bag if step else ():
            write_record(f, name, m[name], v[name])


class CheckpointError(ValueError):
    pass


def load_checkpoint(path):
    """Read a checkpoint back into (config, bag, structured params,
    (step, m, v)), with Adam's moments by parameter name: zeros at step 0.
    A parameter or moment holding NaN or Inf is refused, by name, and so is
    a file whose CRC32 trailer does not match (see ``binio``)."""
    with open(path, "rb") as f:
        r = Reader(f, path, CheckpointError)
        r.magic(CHECKPOINT_MAGIC, "checkpoint")
        r.version(CHECKPOINT_VERSION, "checkpoint")
        blob = r.bytes(r.u32("config length"), "config")
        try:
            cfg = from_dict(ModelConfig, json.loads(blob.decode("utf-8")))
        except (ValueError, RecursionError) as e:
            raise r.fail(f"bad model config: {e}") from None
        bag = {}

        def read(name, shape, kind):
            found = r.name("parameter name"), r.shape(f"parameter {name!r}")
            if found != (name, tuple(shape)):
                raise r.fail(f"expected parameter {name!r} of shape {tuple(shape)}, "
                             f"found {found[0]!r} of shape {found[1]}")
            return _leaf(bag, name, r.float32(shape, f"parameter {name!r} data"))

        params = _model_layout(cfg, read).view
        (step,) = r.unpack("Q", "Adam step")
        count = r.u32("Adam record count")
        records = len(bag) if step else 0  # step 0's moments are zeros: no records
        if count != records:
            raise r.fail(f"Adam step {step} needs {records} moment records, "
                         f"found {count}")
        m = {name: np.zeros_like(t.data) for name, t in bag.items()}
        v = {name: np.zeros_like(t.data) for name, t in bag.items()}
        for name in list(bag)[:count]:
            found = r.name("moment record name")
            if found != name:
                raise r.fail(f"expected the moments of {name!r}, found {found!r}")
            for moment, store in (("m", m), ("v", v)):
                shape = r.shape(f"{name!r} {moment}")
                if shape != store[name].shape:
                    raise r.fail(f"expected {name!r} {moment} of shape "
                                 f"{store[name].shape}, found shape {shape}")
                store[name] = r.float32(shape, f"{name!r} {moment} data")
        r.end("the Adam section")
    return cfg, bag, params, (step, m, v)
