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

``multi_head_attention`` is one taped op. Its forward computes each head's
scores in blocks of query rows (``SCORE_BLOCK_BYTES``) and, on calls of
``ATTENTION_THREAD_SCORES`` scores per head or more, normalises each block
on ``ops``' worker while the calling thread computes the next block's
scores and the previous block's product with V. Both products go through
``tensor.matmul`` on untaped Tensors, so the benchmark's tracer counts every
forward MAC where it counts every other product; the worker runs raw numpy
only. Its rule saves q, k and v and recomputes the probabilities block by
block, as FlashAttention does (Dao et al., NeurIPS 2022), so the graph holds
no n x n array. Forward and gradients are byte-identical to the same blocks
composed from tape ops, on either thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import ops
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
        if self.heads < 1 or self.dim % self.heads:
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

# Scores per head (query tokens x key tokens) from which multi_head_attention
# normalises each score block on ops' worker. Set from whole register calls
# and training steps on a 2-vCPU host: the 64^3 stage-1 calls (4096^2) gain;
# handing off the 512-token calls as well gained nothing, in a 64^3 register
# call or in a 32^3 training step, whose forward shares the second core with
# the pair producer; and a 64-token, 8-head call alone went 0.3 -> 1.0 ms.
ATTENTION_THREAD_SCORES = 1 << 20


def _head_columns(x: np.ndarray, heads: int) -> list:
    """Each head's columns of the (tokens, dim) array ``x``, C-ordered."""
    dk = x.shape[1] // heads
    return [np.ascontiguousarray(x[:, h * dk:(h + 1) * dk]) for h in range(heads)]


def _scores(product, qb, kt, scale):
    """A block's scaled scores ``product(qb, kt) * scale`` and their row max."""
    s = product(qb, kt)
    s *= scale
    return s, s.max(axis=-1, keepdims=True)


def _normalise(s, row_max):
    """Softmax of each row of the scores ``s``, in place. Raw numpy: it runs
    on ops' worker."""
    np.subtract(s, row_max, out=s)
    np.exp(s, out=s)
    np.divide(s, s.sum(axis=-1, keepdims=True), out=s)


def _check_attention(q: Tensor, k: Tensor, v: Tensor, heads: int):
    shapes = f"multi_head_attention: q {q.shape}, k {k.shape}, v {v.shape}"
    if not q.ndim == k.ndim == v.ndim == 2 or not all(q.shape + k.shape + v.shape):
        raise ValueError(f"{shapes}: expects (tokens, dim) operands with no empty extent")
    if heads < 1 or q.shape[1] % heads:
        raise ValueError(f"{shapes}: {heads} heads do not split {q.shape[1]} channels")
    if k.shape[1] != q.shape[1] or v.shape[1] != q.shape[1]:
        raise ValueError(f"{shapes}: k and v must have q's {q.shape[1]} channels")
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"{shapes}: k and v must have one token count")


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Per-head softmax(Q K^T / sqrt(d_k)) V, heads concatenated along the
    channels; the output projection is the caller's. One taped op.

    The forward walks the (head, row block) list in order. Each block is
    ``qb @ kt``, scaled, shifted by its row max, exponentiated and divided by
    its row sum in place, then multiplied by the head's V. With
    ``ATTENTION_THREAD_SCORES`` scores per head or more, one
    ``ops.side_by_side`` per block normalises block j on the worker while
    this thread computes block j+1's scores and row max and then block
    j-1's product with V; so at most three score blocks are live. Both
    products go through ``tensor.matmul`` on untaped Tensors, which is where
    the benchmark's tracer counts forward MACs; the worker runs raw numpy
    only. The arithmetic of each block is the same on either thread.

    The rule saves q, k and v, not the probabilities: it recomputes each
    block's P as the forward did, then dV = P^T dO, dP = dO V^T,
    dS = P * (dP - rowsum(dP * P)) * scale, dQ = dS K and dK = dS^T Q,
    summing a head's dK and dV over its blocks in row order.
    """
    _check_attention(q, k, v, heads)
    n, dm = q.shape
    m = k.shape[0]
    dk = dm // heads
    dtype = q.dtype
    scale = dtype.type(1.0 / np.sqrt(dk))
    rows = max(1, SCORE_BLOCK_BYTES // (m * q.data.itemsize))
    blocks = [(h, r0, min(r0 + rows, n)) for h in range(heads) for r0 in range(0, n, rows)]
    qs, ks, vs = (_head_columns(x.data, heads) for x in (q, k, v))
    out = np.empty((n, dm), dtype=dtype)

    def untaped_matmul(a, b):
        return T.matmul(Tensor(a), Tensor(b)).data

    def scores(i):
        h, r0, r1 = blocks[i]
        return _scores(untaped_matmul, qs[h][r0:r1], ks[h].T, scale)

    def attend(i, p):
        h, r0, r1 = blocks[i]
        out[r0:r1, h * dk:(h + 1) * dk] = untaped_matmul(p, vs[h])

    def own_part(i, previous):
        following = scores(i + 1) if i + 1 < len(blocks) else None
        if previous is not None:
            attend(i - 1, previous)
        return following

    threaded = n * m >= ATTENTION_THREAD_SCORES
    current, previous = scores(0), None
    for i in range(len(blocks)):
        _, following = ops.side_by_side(partial(_normalise, *current),
                                        partial(own_part, i, previous), threaded)
        previous, current = current[0], following
    attend(len(blocks) - 1, previous)

    qd, kd, vd = q.data, k.data, v.data

    def rule(g):
        qs, ks, vs = (_head_columns(x, heads) for x in (qd, kd, vd))
        dq, dkey, dv = (np.empty(x.shape, dtype) for x in (qd, kd, vd))
        # one block's P, dP (then dS, in place) and dP * P, reused
        buffers = np.empty((3, min(rows, n), m), dtype)
        for h in range(heads):
            cols = slice(h * dk, (h + 1) * dk)
            kt, dkt, dvh = ks[h].T, None, None
            for r0 in range(0, n, rows):
                qb, gb = qs[h][r0:r0 + rows], g[r0:r0 + rows, cols]
                p, ds, prod = buffers[:, :qb.shape[0]]
                _normalise(*_scores(partial(np.matmul, out=p), qb, kt, scale))
                np.matmul(gb, vs[h].T, out=ds)
                np.multiply(ds, p, out=prod)
                np.subtract(ds, prod.sum(axis=-1, keepdims=True), out=ds)
                np.multiply(p, ds, out=ds)
                ds *= scale
                dq[r0:r0 + rows, cols] = ds @ kt.T
                if dkt is None:
                    dkt, dvh = qb.T @ ds, p.T @ gb
                else:
                    dkt += qb.T @ ds
                    dvh += p.T @ gb
            dkey[:, cols] = dkt.T
            dv[:, cols] = dvh
        return dq, dkey, dv

    return T.make_op((q, k, v), out, rule)


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
