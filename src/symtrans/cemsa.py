"""Convolution-based efficient multi-head self-attention (CEMSA).

A CEMSA transformer block replaces the learned Q/K/V linear projections of a
standard attention block with convolutional ones: a single depthwise conv over
the token volume produces Q directly (no linear afterwards, which is what
carries positional information in place of a positional embedding), and the
same depthwise output feeds a grouped 1x1x1 conv, a layer norm, and two linear
maps to produce K and V. The grouped conv has one group per channel, so its
weight is dim scalars where a dense 1x1x1 conv would have dim^2. Attention
itself is the usual per-head softmax(Q K^T / sqrt(d_k)) V followed by an
output projection, and the block wraps attention and a feed-forward of 4x the
dim in a pre-norm residual pair. The group count and the feed-forward width
are fixed; what varies per stage is the dim, the heads and the depthwise
kernel in ``CemsaConfig``.

Initialization follows what each weight feeds. The projections that write
into the residual stream (V, output, feed-forward) start small, std 0.02, so
a fresh block is close to the identity. The score path starts at unit gain:
the depthwise trunk and the grouped conv are fan-in scaled like every other
conv, and the K projection has std 1/sqrt(dim). With std 0.02 there, the
logits of the dim-8..32 blocks of a 32-cubed model start between 1e-4 and
5e-2, and the layer norm on the K/V path sits in its eps-dominated corner.
Attention is then uniform, and the gradient that would move it away from
uniform is a product of small factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .ops import Conv3dParams, LinearParams, conv3d, linear
from .tensor import Tensor


def clamp_kernel(s: int, spatial_shape) -> int:
    """Largest odd kernel extent <= min(s, smallest spatial extent), >= 1.

    Configured kernel sizes can equal or exceed small feature maps (and may be
    even); odd size keeps stride-1 same-padding exact.
    """
    s_eff = min(int(s), min(int(e) for e in spatial_shape))
    if s_eff % 2 == 0:
        s_eff -= 1
    return max(s_eff, 1)


@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor


@dataclass
class CemsaConfig:
    dim: int
    heads: int
    dw_kernel: int
    spatial_shape: tuple

    def __post_init__(self):
        self.spatial_shape = tuple(int(e) for e in self.spatial_shape)
        if self.dim % self.heads:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")

    @property
    def tokens(self) -> int:
        d, h, w = self.spatial_shape
        return d * h * w

    @property
    def kernel(self) -> int:
        return clamp_kernel(self.dw_kernel, self.spatial_shape)


@dataclass
class CemsaParams:
    dw: Conv3dParams        # shared depthwise trunk, kernel s
    g_kv: Conv3dParams      # per-channel 1x1x1 conv on the K/V path
    ln_kv: LayerNormParams
    ln1: LayerNormParams
    ln2: LayerNormParams
    proj_k: LinearParams
    proj_v: LinearParams
    proj_out: LinearParams
    ffn1: LinearParams
    ffn2: LinearParams


def cemsa_params(cfg: CemsaConfig, param) -> CemsaParams:
    """Declare one block's parameters and bind what ``param`` gives back.

    ``param(name, shape, init_kind)`` is called once per parameter, in
    declaration order, with the name relative to the block; its return value
    fills the slot the forward pass reads. Call arguments are evaluated left
    to right, so the order below is the declaration order.
    """
    d, s = cfg.dim, cfg.kernel

    def pair(name, shape, kind):  # a weight and its bias
        return (param(f"{name}.weight", shape, kind),
                param(f"{name}.bias", shape[:1], "zeros"))

    def conv(name, k):  # one input channel per output channel
        return Conv3dParams(*pair(name, (d, 1, k, k, k), "conv"))

    def ln(name):
        return LayerNormParams(param(f"{name}.gamma", (d,), "ones"),
                               param(f"{name}.beta", (d,), "zeros"))

    def lin(name, out_dim, in_dim, kind="weight"):
        return LinearParams(*pair(name, (out_dim, in_dim), kind))

    return CemsaParams(
        dw=conv("dw", s), g_kv=conv("g_kv", 1),
        ln_kv=ln("ln_kv"), ln1=ln("ln1"), ln2=ln("ln2"),
        proj_k=lin("proj_k", d, d, "key"), proj_v=lin("proj_v", d, d),
        proj_out=lin("proj_out", d, d),
        ffn1=lin("ffn1", 4 * d, d), ffn2=lin("ffn2", d, 4 * d),
    )


def cemsa_param_shapes(cfg: CemsaConfig) -> dict:
    """Relative name -> (shape, init kind) for one block's parameters."""
    shapes = {}

    def record(name, shape, kind):
        shapes[name] = (shape, kind)

    cemsa_params(cfg, record)
    return shapes


def truncated_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within two deviations."""
    out = rng.normal(0.0, std, size=shape)
    for _ in range(16):
        bad = np.abs(out) > 2.0 * std
        if not bad.any():
            break
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
    return np.clip(out, -2.0 * std, 2.0 * std)


def init_array(shape, kind, rng: np.random.Generator) -> np.ndarray:
    fan_in = int(np.prod(shape[1:]))
    if kind == "weight":  # linears that write into the residual stream
        return truncated_normal(rng, shape)
    if kind == "key":  # K projection: unit gain, so logits start at O(1)
        return truncated_normal(rng, shape, std=1.0 / np.sqrt(fan_in))
    if kind == "conv":  # every conv: fan-in scaled for LeakyReLU stacks
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
    if kind == "zeros":
        return np.zeros(shape)
    if kind == "ones":
        return np.ones(shape)
    if kind == "flow":  # near-identity start for the final field head
        return rng.normal(0.0, 1e-5, size=shape)
    raise ValueError(f"unknown init kind {kind!r}")


def bind_cemsa_params(cfg: CemsaConfig, prefix: str, tensors) -> CemsaParams:
    """Assemble the structured view over a name -> Tensor mapping."""
    return cemsa_params(cfg, lambda name, shape, kind: tensors[f"{prefix}.{name}"])


def tokens_to_volume(x: Tensor, spatial_shape) -> Tensor:
    """(N, C) tokens back to a (C, D, H, W) volume; N must be D * H * W."""
    n, c = x.shape
    spatial_shape = tuple(spatial_shape)
    if n != int(np.prod(spatial_shape)):
        raise ValueError(
            f"token count {n} does not match spatial shape {spatial_shape}"
        )
    return T.reshape(T.transpose2d(x), (c,) + spatial_shape)


def volume_to_tokens(vol: Tensor) -> Tensor:
    c = vol.shape[0]
    n = int(np.prod(vol.shape[1:]))
    return T.transpose2d(T.reshape(vol, (c, n)))


def cemsa_qkv(x: Tensor, cfg: CemsaConfig, p: CemsaParams):
    """Convolutional Q/K/V projection of a token sequence.

    Q is the flattened depthwise conv output, used raw. K and V come from the
    same depthwise trunk through the grouped conv, layer norm, and one linear
    projection each.
    """
    trunk = conv3d(tokens_to_volume(x, cfg.spatial_shape), p.dw)
    q = volume_to_tokens(trunk)
    kv = volume_to_tokens(conv3d(trunk, p.g_kv))
    kv = T.layer_norm(kv, p.ln_kv.gamma, p.ln_kv.beta)
    return q, linear(kv, p.proj_k), linear(kv, p.proj_v)


# Bytes of attention scores live at once per head. Larger score matrices are
# computed in blocks of query rows: each row's softmax is independent, so the
# blocked result is exact, and the n x n matrix is never held whole.
SCORE_BLOCK_BYTES = 4 << 20


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Per-head softmax(Q K^T / sqrt(d_k)) V, heads concatenated along the
    channels; the output projection is the caller's."""
    n, dm = q.shape
    if dm % heads:
        raise ValueError(f"dim {dm} not divisible by heads {heads}")
    dk = dm // heads
    scale = 1.0 / np.sqrt(dk)
    rows = max(1, SCORE_BLOCK_BYTES // (k.shape[0] * q.data.itemsize))
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
            blocks.append(T.matmul(T.softmax_lastdim(scores), vh))
        outputs.append(blocks[0] if len(blocks) == 1 else T.concat(blocks, axis=0))
    return outputs[0] if heads == 1 else T.concat(outputs, axis=1)


def cemsa_block(x: Tensor, cfg: CemsaConfig, p: CemsaParams) -> Tensor:
    """Pre-norm residual transformer block with CEMSA attention.

    No positional embedding anywhere: the depthwise projection carries the
    positional information.
    """
    q, k, v = cemsa_qkv(T.layer_norm(x, p.ln1.gamma, p.ln1.beta), cfg, p)
    y = T.add(x, linear(multi_head_attention(q, k, v, cfg.heads), p.proj_out))
    h = T.layer_norm(y, p.ln2.gamma, p.ln2.beta)
    h = linear(T.gelu(linear(h, p.ffn1)), p.ffn2)
    return T.add(y, h)


def count_parameters(cfg: CemsaConfig) -> int:
    """Exact learnable-scalar count of one CEMSA block (layer norms included)."""
    return sum(math.prod(shape) for shape, _ in cemsa_param_shapes(cfg).values())


def count_flops(cfg: CemsaConfig) -> int:
    """Multiply-accumulate count of one CEMSA block forward pass.

    Each weight is applied once per token, so the block costs tokens times the
    sum of its weight sizes, plus n^2 d each for Q K^T and for the product
    with V. Biases and layer norms are not counted.
    """
    n = cfg.tokens
    weights = sum(math.prod(shape) for name, (shape, _)
                  in cemsa_param_shapes(cfg).items() if name.endswith(".weight"))
    return n * weights + 2 * n * n * cfg.dim


def msa_count_parameters(dim: int) -> int:
    """Companion count for a standard MSA block at the same embedding dim.

    Three dim x dim input projections, one output projection, the 4x
    feed-forward pair, and two layer norms.
    """
    d = dim
    return 4 * (d * d + d) + (4 * d * d + 4 * d) + (d * 4 * d + d) + 4 * d
