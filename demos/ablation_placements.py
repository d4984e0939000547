#!/usr/bin/env python3
"""The four transformer placements and what they cost.

symmetric     transformer stages in both halves (the full model)
encoder_only  conv decoder (patch expanding becomes a transposed conv)
decoder_only  conv encoder
bottom_only   every transformer block stacked at the 1/16 bottleneck
"""

import dataclasses

import numpy as np

from symtrans.model import (
    ModelConfig,
    conv_depths,
    forward,
    init_model_params,
    model_count_flops,
    model_count_parameters,
    transformer_depths,
)
from symtrans.tensor import Tensor

base = ModelConfig(input_shape=(32, 32, 32), base_dim=8)
print(f"base config: input {base.input_shape}, dims {base.stage_dims}, "
      f"encoder depths {base.encoder_depths}, decoder depths {base.decoder_depths}")

print(f"\n{'placement':<14} {'tf enc':<10} {'tf dec':<10} {'conv enc':<10} "
      f"{'conv dec':<10} {'params':>9} {'MFLOPs':>8}")
for placement in ("symmetric", "encoder_only", "decoder_only", "bottom_only"):
    cfg = dataclasses.replace(base, placement=placement)
    enc_tf, dec_tf = transformer_depths(cfg)
    enc_cv, dec_cv = conv_depths(cfg)
    print(f"{placement:<14} {str(enc_tf):<10} {str(dec_tf):<10} "
          f"{str(enc_cv):<10} {str(dec_cv):<10} "
          f"{model_count_parameters(cfg):>9} "
          f"{model_count_flops(cfg) / 1e6:>8.0f}")

# all four produce the same output contract on the same input
rng = np.random.default_rng(0)
moving = Tensor(rng.normal(size=(1, 32, 32, 32)).astype(np.float32))
fixed = Tensor(rng.normal(size=(1, 32, 32, 32)).astype(np.float32))
print()
for placement in ("symmetric", "encoder_only", "decoder_only", "bottom_only"):
    cfg = dataclasses.replace(base, placement=placement)
    _, params = init_model_params(cfg, np.random.default_rng(1))
    out = forward(moving, fixed, params, cfg)
    print(f"{placement:<14} raw field {out.shape}, "
          f"|field|_max at init {np.abs(out.data).max():.2e}")
