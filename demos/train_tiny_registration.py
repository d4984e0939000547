#!/usr/bin/env python3
"""End-to-end desk-scale run: synthesize pairs, train, register, evaluate.

Takes a couple of minutes on a laptop CPU. Writes loss.csv, a checkpoint, and
(if matplotlib is importable) a loss-curve PNG under demos_out/.
"""

from pathlib import Path

import numpy as np

from symtrans.losses import dice
from symtrans.model import ModelConfig, bind_model_params
from symtrans.training import (
    SyntheticSpec,
    TrainConfig,
    generate_pair,
    pair_rng,
    register,
    train,
)

out_dir = Path("demos_out/tiny_registration")

model = ModelConfig(input_shape=(32, 32, 32), base_dim=8,
                    encoder_depths=(1, 1, 1), decoder_depths=(1, 1, 1))
cfg = TrainConfig(lr=5e-3, beta2=0.99, iterations=200, seed=42,
                  checkpoint_every=100, model=model, data=SyntheticSpec())

print(f"training {cfg.iterations} iterations on synthetic 32^3 pairs ...")
result = train(cfg, out_dir=out_dir, log=50)

losses = np.array([row[1] for row in result.curve])
print(f"smoothed loss: {losses[:20].mean():.5f} -> {losses[-20:].mean():.5f}")

params = bind_model_params(model, result.bag)
pres, posts, disp_folds, diff_folds = [], [], [], []
for k in range(5):
    moving, fixed, lm, lf, _ = generate_pair(cfg.data, pair_rng(991, k))
    _, pre = dice(lm, lf)
    _, _, met = register(moving, fixed, params, model, mode="displacement",
                         moving_labels=lm, fixed_labels=lf)
    _, _, met_diff = register(moving, fixed, params, model, mode="diffeomorphic",
                              moving_labels=lm, fixed_labels=lf)
    pres.append(pre)
    posts.append(met["dsc_mean"])
    disp_folds.append(met["folding_count"])
    diff_folds.append(met_diff["folding_count"])
    print(f"pair {k}: DSC {pre:.3f} -> {met['dsc_mean']:.3f}  "
          f"folding disp={met['folding_count']} diff={met_diff['folding_count']}")

print(f"\nmean DSC {np.mean(pres):.3f} -> {np.mean(posts):.3f}")
print(f"total folding: displacement {sum(disp_folds)}, "
      f"diffeomorphic {sum(diff_folds)}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 3.5))
    ax.plot(losses, lw=0.6, alpha=0.4, label="per-iteration")
    kernel = np.ones(20) / 20
    ax.plot(np.arange(19, len(losses)), np.convolve(losses, kernel, "valid"),
            lw=1.5, label="20-iter mean")
    ax.set_xlabel("iteration")
    ax.set_ylabel("loss")
    ax.legend()
    fig.tight_layout()
    fig.savefig(out_dir / "loss_curve.png", dpi=120)
    print(f"wrote {out_dir / 'loss_curve.png'}")
except ImportError:
    pass
