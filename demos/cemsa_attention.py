#!/usr/bin/env python3
"""Anatomy of the CEMSA transformer block and its parameter economics.

CEMSA swaps the learned Q/K/V linear projections of standard attention for
convolutional ones: one shared depthwise conv over the token volume gives Q
directly (its spatial structure is what replaces the positional embedding),
and the same trunk feeds a grouped 1x1x1 conv + layer norm + two linears for
K and V. The grouped conv has one group per channel, and the feed-forward is
4x the dim; neither is configurable.
"""

import math

import numpy as np

from symtrans.cemsa import (
    CemsaConfig,
    cemsa_block,
    cemsa_param_shapes,
    cemsa_params,
    cemsa_qkv,
    count_flops,
    count_parameters,
    init_array,
    msa_count_parameters,
)
from symtrans.tensor import Tensor

# a stage working on a 6x6x6 token volume with 16 channels, 4 heads
cfg = CemsaConfig(dim=16, heads=4, dw_kernel=5, spatial_shape=(6, 6, 6))
# cemsa_params declares every parameter once, as (name, shape, init kind) in
# a fixed order, and binds what its source returns; this source draws the init
# into a plain name -> Tensor dict, the parameter bag
bag = {}
rng = np.random.default_rng(0)


def draw(name, shape, kind):
    bag[f"demo.{name}"] = Tensor(init_array(shape, kind, rng), requires_grad=True,
                                 dtype=np.float32)
    return bag[f"demo.{name}"]


params = cemsa_params(cfg, draw)

x = Tensor(np.random.default_rng(1).normal(size=(216, 16)).astype(np.float32))
q, k, v = cemsa_qkv(x, cfg, params)
print(f"tokens {x.shape} -> Q {q.shape}, K {k.shape}, V {v.shape}")

out = cemsa_block(x, cfg, params)
print(f"block output {out.shape} (token count preserved)")

# With every learned weight zeroed the block is the identity: both the
# attention branch and the FFN die, leaving the two residual connections.
for _, t in bag.items():
    t.data[:] = 0.0
identity = cemsa_block(x, cfg, params)
print("zero-weight block is identity:", np.array_equal(identity.data, x.data))

# Parameter economics: the depthwise kernel costs dim * s^3 instead of the
# dim^2 of a learned Q projection, and the grouped conv, with one group per
# channel, has dim weights where a dense 1x1x1 conv would have dim^2.
print(f"\n{'dim':>5} {'s_eff':>6} {'CEMSA':>9} {'MSA':>9} {'saving':>8}")
for dim, heads, s, shape in ((48, 2, 24, (4, 4, 4)), (96, 4, 16, (2, 2, 2)),
                             (192, 8, 12, (1, 1, 1))):
    c = CemsaConfig(dim=dim, heads=heads, dw_kernel=s, spatial_shape=shape)
    cemsa = count_parameters(c)
    msa = msa_count_parameters(dim)
    print(f"{dim:>5} {c.kernel:>6} {cemsa:>9} {msa:>9} {1 - cemsa / msa:>7.1%}")

# Both counts read that declaration: parameters are the sum of its sizes,
# and every weight runs once per token, plus the n^2 d of Q K^T and of its
# product with V.
sizes = {name: math.prod(shape) for name, (shape, _)
         in cemsa_param_shapes(CemsaConfig(dim=64, heads=4, dw_kernel=3,
                                           spatial_shape=(4, 4, 4))).items()}
print("\nper-tensor parameter sizes at dim 64:", sizes)

c = CemsaConfig(dim=64, heads=4, dw_kernel=3, spatial_shape=(8, 8, 8))
print(f"forward MACs at dim 64 on an 8^3 stage: {count_flops(c):,} "
      f"(attention {2 * c.tokens ** 2 * c.dim:,})")
