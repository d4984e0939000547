"""The program surface the benchmark's tracer depends on.

``perfbench/tracing.py`` rebinds public functions by identity and keys the
backward time of each op on the name of the function that calls ``make_op``.
A rename, or a conv whose ``make_op`` call moves into a helper, would silently
move time between the benchmark's per-layer metrics; these tests catch that
in the tier-1 suite.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from symtrans import losses, model
from symtrans.losses import LossConfig
from symtrans.model import ModelConfig, init_model_params, model_count_flops
from symtrans.tensor import Tensor

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_step_matches_flop_count_and_times_conv_backward(tracing):
    cfg = ModelConfig(input_shape=(16, 16, 16), base_dim=8,
                      encoder_depths=(1, 1, 1), decoder_depths=(1, 1, 1))
    _, params = init_model_params(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    moving, fixed = (Tensor(rng.random((1,) + cfg.input_shape).astype(np.float32))
                     for _ in range(2))
    untraced = model.forward
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = 0
    try:
        # through the module attributes, which are what the tracer rebinds
        raw = model.forward(moving, fixed, params, cfg)
        counts = dict(tracer.counts[0])
        loss, *_ = losses.total_loss(moving, fixed, raw, LossConfig(), cfg.mode)
        loss.backward()
    finally:
        tracer.uninstall()

    traced = (counts["ops.conv3d.dw.macs"] + counts["ops.conv3d.other.macs"]
              + counts["tensor.matmul.macs"])
    assert traced == model_count_flops(cfg)
    assert counts["model.forward.macs"] == model_count_flops(cfg)
    spans = {span[0] for span in tracer.spans}
    assert {"ops.conv3d.dw.bwd_s", "ops.conv3d.other.bwd_s"} <= spans
    assert model.forward is untraced
