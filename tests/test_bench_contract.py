"""The program surface the benchmark's tracer depends on.

``perfbench/tracing.py`` rebinds public functions by identity and keys the
backward time of each op on the name of the function that calls ``make_op``.
A rename, or a conv whose ``make_op`` call moves into a helper, would silently
move time between the benchmark's per-layer metrics; these tests catch that
in the tier-1 suite.
"""

import importlib.util
import threading
from pathlib import Path

import numpy as np
import pytest

from symtrans import deformation, losses, model
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


def check_traced_step(tracing, placement):
    """Trace a 16^3 training step: its MACs are the FLOP count, and every conv
    kind it ran has a backward span."""
    cfg = ModelConfig(input_shape=(16, 16, 16), base_dim=8, placement=placement,
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

    traced = (counts.get("ops.conv3d.dw.macs", 0) + counts["ops.conv3d.other.macs"]
              + counts["tensor.matmul.macs"])
    assert traced == model_count_flops(cfg)
    assert counts["model.forward.macs"] == model_count_flops(cfg)
    # bottom_only runs its blocks at 1/16 = 1^3, where the depthwise trunk
    # clamps to a 1x1x1 kernel and is traced as an ordinary conv
    kinds = {"other"} if placement == "bottom_only" else {"dw", "other"}
    assert {k for k in ("dw", "other") if f"ops.conv3d.{k}.macs" in counts} == kinds
    spans = {span[0] for span in tracer.spans}
    assert {f"ops.conv3d.{k}.bwd_s" for k in kinds} <= spans
    assert model.forward is untraced


@pytest.mark.parametrize("placement", model.PLACEMENTS)
def test_traced_step_matches_flop_count_and_times_conv_backward(tracing, placement):
    check_traced_step(tracing, placement)


def test_traced_step_with_conv_backward_on_the_worker(tracing, threaded_backward):
    # the worker runs raw numpy only, so the tracer's one-thread span stack
    # and its conv backward keys hold when every dw loop runs there
    check_traced_step(tracing, "symmetric")


def traced_diffeomorphic_step(tracing):
    """Trace a 16^3 diffeomorphic training step: the tracer, the forward's
    counts and the model config."""
    cfg = ModelConfig(input_shape=(16, 16, 16), base_dim=8, mode="diffeomorphic",
                      encoder_depths=(1, 1, 1), decoder_depths=(1, 1, 1))
    _, params = init_model_params(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    moving, fixed = (Tensor(rng.random((1,) + cfg.input_shape).astype(np.float32))
                     for _ in range(2))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = 0
    try:
        raw = model.forward(moving, fixed, params, cfg)
        counts = dict(tracer.counts[0])
        loss, *_ = losses.total_loss(moving, fixed, raw, LossConfig(), cfg.mode)
        loss.backward()
    finally:
        tracer.uninstall()
    return tracer, counts, cfg


def test_traced_diffeomorphic_step_times_trilinear_backward(tracing):
    tracer, _, _ = traced_diffeomorphic_step(tracing)
    # 7 scaling-and-squaring compositions and the warp of the moving image
    assert tracer.counts[0]["deformation.trilinear_sample.calls"] == 8
    # a make_op call moved into a helper would be timed as tensor.other
    spans = [span[0] for span in tracer.spans]
    assert spans.count("deformation.trilinear_sample.bwd_s") == 8


def test_traced_diffeomorphic_step_with_trilinear_on_the_worker(tracing, threaded_sample,
                                                                monkeypatch):
    # the worker runs raw numpy only, so the tracer's one-thread span stack,
    # its trilinear spans and its MAC count hold when the first half of
    # every forward's depths and every field scatter run there
    ran_on = []
    sample_slab = deformation._sample_slab

    def spy(*args):
        ran_on.append(threading.current_thread() is threading.main_thread())
        return sample_slab(*args)

    monkeypatch.setattr(deformation, "_sample_slab", spy)
    tracer, counts, cfg = traced_diffeomorphic_step(tracing)
    assert not all(ran_on) and any(ran_on)
    assert tracer.counts[0]["deformation.trilinear_sample.calls"] == 8
    spans = [span[0] for span in tracer.spans]
    assert spans.count("deformation.trilinear_sample.fwd_s") == 8
    assert spans.count("deformation.trilinear_sample.bwd_s") == 8
    traced = (counts.get("ops.conv3d.dw.macs", 0) + counts["ops.conv3d.other.macs"]
              + counts["tensor.matmul.macs"])
    assert traced == counts["model.forward.macs"] == model_count_flops(cfg)
