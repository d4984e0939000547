import errno
import gc
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import weakref
from concurrent import futures

import numpy as np
import pytest

from symtrans import ops, training
from symtrans.deformation import jacobian_determinant
from symtrans.losses import LossConfig, dice, total_loss, warp_labels
from symtrans.model import ModelConfig
from symtrans.oracles import adam_reference
from symtrans.tensor import Tensor
from symtrans.training import (
    AdamState,
    SyntheticSpec,
    TrainingDiverged,
    TrainConfig,
    adam_step,
    generate_pair,
    init_adam,
    load_opt_state,
    pair_rng,
    register,
    save_opt_state,
    train,
)


def tiny_train_cfg(**kw):
    model = ModelConfig(input_shape=(16, 16, 16), base_dim=8,
                        encoder_depths=(1, 1, 1), decoder_depths=(1, 1, 1))
    data = SyntheticSpec(extents=(16, 16, 16), radius_range=(2.5, 4.0),
                         warp_amplitude=1.5, warp_sigma=2.5)
    base = dict(model=model, data=data, iterations=3, seed=7,
                checkpoint_every=100)
    base.update(kw)
    return TrainConfig(**base)


def params_dict(values):
    return {k: Tensor(np.asarray(v), requires_grad=True) for k, v in values.items()}


def set_grads(params, grads):
    for k, g in grads.items():
        params[k].grad = np.asarray(g, dtype=params[k].dtype)


def test_adam_zero_grad_keeps_params():
    params = params_dict({"w": np.array([1.0, -2.0], np.float32)})
    state = init_adam(params)
    set_grads(params, {"w": np.zeros(2)})
    state = adam_step(params, state, tiny_train_cfg())
    assert state.t == 1
    np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    cfg = tiny_train_cfg(lr=1e-2)
    params = params_dict({"w": np.array([0.0, 0.0], np.float32)})
    state = init_adam(params)
    set_grads(params, {"w": np.array([0.3, -5.0])})
    adam_step(params, state, cfg)
    np.testing.assert_allclose(params["w"].data, [-1e-2, 1e-2], rtol=1e-4)


def test_adam_matches_wide_precision_oracle():
    cfg = tiny_train_cfg(lr=0.05)
    x0 = np.array([1.0, 1.0])
    params = {"x": Tensor(x0, requires_grad=True, dtype=np.float64)}
    state = init_adam(params)
    for _ in range(10):
        params["x"].grad = 2.0 * params["x"].data
        adam_step(params, state, cfg)
    traj = adam_reference(x0, lambda x: 2.0 * x, lr=0.05, steps=10)
    np.testing.assert_allclose(params["x"].data, traj[-1], atol=1e-10)


def test_adam_update_sign_invariant_to_loss_scale():
    cfg = tiny_train_cfg(lr=1e-3)
    g = np.array([0.2, -0.7, 1.4])
    updates = []
    for scale in (1.0, 25.0):
        params = params_dict({"w": np.zeros(3, np.float32)})
        state = init_adam(params)
        set_grads(params, {"w": scale * g})
        adam_step(params, state, cfg)
        updates.append(params["w"].data.copy())
    np.testing.assert_array_equal(np.sign(updates[0]), np.sign(updates[1]))


def test_adam_missing_grad_raises():
    params = params_dict({"w": np.zeros(2, np.float32)})
    state = init_adam(params)
    with pytest.raises(ValueError, match="missing gradient"):
        adam_step(params, state, tiny_train_cfg())


def test_generate_pair_zero_amplitude():
    spec = SyntheticSpec(extents=(16, 16, 16), warp_amplitude=0.0,
                         radius_range=(2.5, 4.0))
    moving, fixed, lm, lf, u = generate_pair(spec, np.random.default_rng(0))
    np.testing.assert_array_equal(u, 0.0)
    np.testing.assert_allclose(moving, fixed, atol=1e-6)
    np.testing.assert_array_equal(lm, lf)


def test_generate_pair_fold_free_and_labels_warped():
    spec = SyntheticSpec(extents=(16, 16, 16), radius_range=(2.5, 4.0),
                         warp_amplitude=2.0, warp_sigma=2.5)
    for seed in range(5):
        moving, fixed, lm, lf, u = generate_pair(spec, np.random.default_rng(seed))
        _, stats = jacobian_determinant(u)
        assert stats.count == 0
        assert moving.shape == (1, 16, 16, 16) and lm.shape == (16, 16, 16)
        np.testing.assert_array_equal(lf, warp_labels(lm, u))
        # the true field recovers the fixed labels exactly; raw overlap is worse
        _, pre = dice(lm, lf)
        _, post = dice(warp_labels(lm, u), lf)
        assert post == 1.0
        assert pre < post


def test_generate_pair_deterministic_stream():
    spec = SyntheticSpec(extents=(16, 16, 16), radius_range=(2.5, 4.0))
    a = generate_pair(spec, pair_rng(3, 5))
    b = generate_pair(spec, pair_rng(3, 5))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_train_zero_iterations_returns_init(tmp_path):
    cfg = tiny_train_cfg(iterations=0)
    result = train(cfg, out_dir=tmp_path)
    import numpy.random as npr
    from symtrans.model import init_model_params

    bag, _ = init_model_params(cfg.model, npr.default_rng(cfg.seed))
    for (n1, t1), (n2, t2) in zip(result.bag.items(), bag.items()):
        assert n1 == n2
        np.testing.assert_array_equal(t1.data, t2.data)
    assert (tmp_path / "checkpoint_000000.symt").exists()
    assert result.curve == []


def test_train_same_seed_bit_identical(tmp_path):
    cfg = tiny_train_cfg(iterations=3)
    r1 = train(cfg, out_dir=tmp_path / "a")
    r2 = train(cfg, out_dir=tmp_path / "b")
    assert r1.curve == r2.curve
    f1 = (tmp_path / "a" / "checkpoint_000003.symt").read_bytes()
    f2 = (tmp_path / "b" / "checkpoint_000003.symt").read_bytes()
    assert f1 == f2
    assert ((tmp_path / "a" / "loss.csv").read_bytes()
            == (tmp_path / "b" / "loss.csv").read_bytes())


def test_train_resume_matches_uninterrupted(tmp_path):
    cfg_full = tiny_train_cfg(iterations=6, checkpoint_every=3)
    full = train(cfg_full, out_dir=tmp_path / "full")
    part = train(tiny_train_cfg(iterations=3, checkpoint_every=3),
                 out_dir=tmp_path / "part")
    resumed = train(cfg_full, out_dir=tmp_path / "resumed",
                    resume=tmp_path / "part" / "checkpoint_000003")
    assert resumed.curve == full.curve[3:]
    a = (tmp_path / "full" / "checkpoint_000006.symt").read_bytes()
    b = (tmp_path / "resumed" / "checkpoint_000006.symt").read_bytes()
    assert a == b


def test_opt_state_round_trip(tmp_path):
    params = params_dict({"a.w": np.ones((2, 3), np.float32),
                          "b.w": np.zeros(4, np.float32)})
    state = init_adam(params)
    state.t = 17
    state.m["a.w"] += 0.25
    state.v["b.w"] += 1.5
    save_opt_state(tmp_path / "s.opt", state)
    back = load_opt_state(tmp_path / "s.opt")
    assert back.t == 17
    np.testing.assert_array_equal(back.m["a.w"], state.m["a.w"])
    np.testing.assert_array_equal(back.v["b.w"], state.v["b.w"])


def test_register_modes_share_raw_field():
    cfg = tiny_train_cfg(iterations=0)
    result = train(cfg)
    from symtrans.model import bind_model_params

    params = bind_model_params(cfg.model, result.bag.tensors)
    spec = cfg.data
    moving, fixed, lm, lf, _ = generate_pair(spec, pair_rng(1, 0))
    u_disp, warped_disp, met_disp = register(moving, fixed, params, cfg.model,
                                             mode="displacement",
                                             moving_labels=lm, fixed_labels=lf)
    u_diff, _, met_diff = register(moving, fixed, params, cfg.model,
                                   mode="diffeomorphic")
    # freshly initialized model: near-zero field either way, and the
    # integrated field of a near-zero velocity is itself near zero
    assert np.max(np.abs(u_disp)) < 0.01
    assert np.max(np.abs(u_diff)) < 0.01
    assert "dsc_mean" in met_disp and "folding_count" in met_diff
    with pytest.raises(ValueError, match="mode"):
        register(moving, fixed, params, cfg.model, mode="affine")


def test_register_reports_the_training_objective():
    cfg = tiny_train_cfg(iterations=0)
    result = train(cfg)
    from symtrans.model import bind_model_params, forward

    params = bind_model_params(cfg.model, result.bag.tensors)
    moving, fixed, _, _, _ = generate_pair(cfg.data, pair_rng(1, 0))
    for mode in ("displacement", "diffeomorphic"):
        u, warped, met = register(moving, fixed, params, cfg.model, mode=mode)
        raw = forward(Tensor(moving), Tensor(fixed), params, cfg.model)
        loss, comp, u_loss, warped_loss = total_loss(
            Tensor(moving), Tensor(fixed), raw, cfg.loss, mode)
        # the same ops with and without a tape give the same bytes
        assert loss._backward_rule is not None
        assert met["loss"] == float(loss.data)
        assert {k: met[k] for k in comp} == comp
        np.testing.assert_array_equal(u, u_loss.data)
        np.testing.assert_array_equal(warped, warped_loss.data)


def test_register_records_no_tape_and_leaves_parameters_trainable(monkeypatch):
    import symtrans.training as training
    from symtrans import tensor as T
    from symtrans.model import forward, init_model_params

    cfg = tiny_train_cfg()
    bag, params = init_model_params(cfg.model, np.random.default_rng(3))
    moving, fixed, _, _, _ = generate_pair(cfg.data, pair_rng(1, 0))
    seen = []

    def spy(moving_t, fixed_t, raw, loss_cfg, mode):
        result = total_loss(moving_t, fixed_t, raw, loss_cfg, mode)
        seen.extend([raw, result[0], *result[2:]])
        return result

    monkeypatch.setattr(training, "total_loss", spy)
    register(moving, fixed, params, cfg.model, mode="diffeomorphic")
    assert len(seen) == 4
    for t in seen:
        assert not t.requires_grad and t._parents == () and t._backward_rule is None
    # an unknown mode raises after the forward pass; the tape comes back on
    with pytest.raises(ValueError, match="mode"):
        register(moving, fixed, params, cfg.model, mode="affine")
    for name, t in bag.items():
        assert t.requires_grad and t.grad is None, name
    assert forward(Tensor(moving), Tensor(fixed), params,
                   cfg.model)._backward_rule is not None
    with T.no_grad():
        raw = forward(Tensor(moving), Tensor(fixed), params, cfg.model)
    assert not raw.requires_grad and raw._parents == () and raw._backward_rule is None


def test_train_config_validation():
    with pytest.raises(ValueError, match="lr"):
        tiny_train_cfg(lr=0.0)
    with pytest.raises(ValueError, match="iterations"):
        tiny_train_cfg(iterations=-1)
    with pytest.raises(ValueError, match="iterations must be an integer"):
        tiny_train_cfg(iterations=1.5)
    with pytest.raises(ValueError, match="seed must be an integer"):
        tiny_train_cfg(seed="x")
    with pytest.raises(ValueError, match="seed must be >= 0"):
        tiny_train_cfg(seed=-1)
    with pytest.raises(ValueError, match="checkpoint_every must be an integer"):
        tiny_train_cfg(checkpoint_every=True)
    for name in ("lr", "eps"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be a finite number"):
                tiny_train_cfg(**{name: bad})
    for name in ("beta1", "beta2"):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match=rf"{name} must lie in \[0, 1\)"):
                tiny_train_cfg(**{name: bad})
    assert tiny_train_cfg(beta1=0.0, beta2=0.0).beta2 == 0.0
    with pytest.raises(ValueError, match="extents"):
        TrainConfig(model=ModelConfig(input_shape=(16, 16, 16)),
                    data=SyntheticSpec(extents=(32, 32, 32)))


@pytest.mark.parametrize("log", [0, -1, 1.5, True, "2"])
def test_train_refuses_a_log_interval_below_one(log):
    with pytest.raises(ValueError, match="log"):
        train(tiny_train_cfg(iterations=1), log=log)


# --- the pair producer -----------------------------------------------------------

@pytest.fixture
def producers(monkeypatch):
    """Every pair producer pool ``train`` starts, in order."""
    started = []

    class Recorded(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", Recorded)
    return started


@pytest.fixture
def pair_calls(monkeypatch):
    """``(seed, iteration, on the main thread)`` for every ``pair_rng`` call."""
    calls = []

    def recorded(seed, iteration):
        calls.append((seed, iteration,
                      threading.current_thread() is threading.main_thread()))
        return pair_rng(seed, iteration)

    monkeypatch.setattr(training, "pair_rng", recorded)
    return calls


def checkpoint_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.glob("checkpoint_*"))}


def test_producer_draws_each_pair_once_in_order(forked_training, producers, pair_calls,
                                                tmp_path):
    train(tiny_train_cfg(iterations=3), out_dir=tmp_path / "part")
    assert pair_calls == [(7, k, True) for k in range(3)]
    pair_calls.clear()
    train(tiny_train_cfg(iterations=6), out_dir=tmp_path / "resumed",
          resume=tmp_path / "part" / "checkpoint_000003")
    assert pair_calls == [(7, k, True) for k in range(3, 6)]
    assert len(producers) == 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kill", [None, "no_fork", "fork_fails_once", "before_send",
                                  "in_flight", "sigint"])
def test_producer_bytes_match_the_inline_run(kill, forked_training, producers, pair_calls,
                                             tmp_path, monkeypatch, capfd):
    cfg = tiny_train_cfg(iterations=4, checkpoint_every=1)
    with monkeypatch.context() as m:
        m.setattr(training, "_FORK_PRODUCER", False)
        m.setattr(ops, "_WORKER", None)
        inline = train(cfg, out_dir=tmp_path / "inline")
    assert producers == []
    pair_calls.clear()

    recorded_rng = training.pair_rng
    recorded_forward = training.forward
    recorded_fork = os.fork

    def child():
        (process,) = multiprocessing.active_children()
        return process

    def before_send(seed, iteration):
        if iteration == 2:
            # SIGKILL: the submit fails or the job finds the pool broken;
            # SIGINT: the child ignores it and makes the pair
            process = child()
            os.kill(process.pid, {"before_send": signal.SIGKILL,
                                  "sigint": signal.SIGINT}[kill])
            if kill == "before_send":
                assert multiprocessing.connection.wait([process.sentinel], 60)
        return recorded_rng(seed, iteration)

    calls = []

    def in_flight(*args):
        calls.append(None)
        if len(calls) == 2:
            # pair 2 was submitted; its job gets the pair or finds the pool broken
            os.kill(child().pid, signal.SIGKILL)
        return recorded_forward(*args)

    forks = []

    def failing_fork():
        forks.append(None)
        if kill == "fork_fails_once" and len(forks) > 1:
            return recorded_fork()
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    if kill in ("no_fork", "fork_fails_once"):
        monkeypatch.setattr(os, "fork", failing_fork)
    elif kill in ("before_send", "sigint"):
        monkeypatch.setattr(training, "pair_rng", before_send)
    elif kill == "in_flight":
        monkeypatch.setattr(training, "forward", in_flight)
    forked = train(cfg, out_dir=tmp_path / "forked")

    assert len(producers) == 1
    # a failed fork ends the producer: the pool is not asked to fork again
    assert len(forks) == (kill in ("no_fork", "fork_fails_once"))
    assert pair_calls == [(7, k, True) for k in range(4)]
    assert forked.curve == inline.curve
    assert checkpoint_bytes(tmp_path / "forked") == checkpoint_bytes(tmp_path / "inline")
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""


def test_producer_error_surfaces_at_the_iteration_that_uses_the_pair(
        forked_training, producers, pair_calls, tmp_path, monkeypatch, capfd):
    generate = training.generate_pair
    folding = pair_rng(7, 2).bit_generator.state

    def fold_at_pair_2(spec, rng):
        if rng.bit_generator.state == folding:
            raise ValueError(f"no fold-free field in process {os.getpid()}")
        return generate(spec, rng)

    monkeypatch.setattr(training, "generate_pair", fold_at_pair_2)
    with pytest.raises(ValueError, match="no fold-free field") as raised:
        train(tiny_train_cfg(iterations=5, checkpoint_every=1), out_dir=tmp_path)
    assert str(os.getpid()) not in str(raised.value)  # raised in the child
    assert len(producers) == 1
    assert pair_calls == [(7, k, True) for k in range(3)]
    # iterations 0 and 1 ran and wrote their checkpoints, as inline
    assert sorted(p.name for p in tmp_path.glob("*.symt")) == [
        f"checkpoint_{step:06d}.symt" for step in range(3)]
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""


def test_producer_stops_when_training_diverges(forked_training, producers, monkeypatch,
                                               capfd):
    scored = training.total_loss
    calls = []

    def diverge_at_step_1(*args):
        loss, comp, u, warped = scored(*args)
        calls.append(None)
        if len(calls) == 2:
            comp = dict(comp, loss=float("nan"))
        return loss, comp, u, warped

    monkeypatch.setattr(training, "total_loss", diverge_at_step_1)
    with pytest.raises(TrainingDiverged) as raised:
        train(tiny_train_cfg(iterations=4))
    assert raised.value.iteration == 1
    assert len(producers) == 1
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""


def test_no_producer_for_one_pair(forked_training, producers, pair_calls):
    train(tiny_train_cfg(iterations=1))
    assert producers == []
    assert pair_calls == [(7, 0, True)]


def test_no_producer_under_inline_training(inline_training, producers, pair_calls):
    train(tiny_train_cfg(iterations=3))
    assert producers == []
    assert pair_calls == [(7, k, True) for k in range(3)]


def _train_in_daemon(cfg, out, conn):
    train(cfg, out_dir=out)
    conn.send(multiprocessing.active_children())


def test_no_producer_in_a_daemonic_process(forked_training, tmp_path):
    # a multiprocessing pool worker is daemonic and may not start a process
    cfg = tiny_train_cfg(iterations=2)
    ctx = multiprocessing.get_context("fork")
    here, there = ctx.Pipe()
    worker = ctx.Process(target=_train_in_daemon, args=(cfg, tmp_path / "daemon", there),
                         daemon=True)
    worker.start()
    worker.join(60)
    assert not worker.is_alive() and worker.exitcode == 0
    assert here.recv() == []
    train(cfg, out_dir=tmp_path / "here")
    assert checkpoint_bytes(tmp_path / "daemon") == checkpoint_bytes(tmp_path / "here")


def test_step_graph_is_freed_before_the_next_forward(monkeypatch):
    # Step k's loss, field and warped image are gone, by reference counts
    # alone, when step k + 1's forward starts: one graph is alive at a time
    forward, scored = training.forward, training.total_loss
    refs, entered = [], []

    def checked_forward(*args):
        entered.append([ref() is None for ref in refs])
        return forward(*args)

    def recorded_loss(*args):
        result = scored(*args)
        refs.extend(weakref.ref(x.data) for x in (args[2],) + result[:1] + result[2:])
        return result

    monkeypatch.setattr(training, "forward", checked_forward)
    monkeypatch.setattr(training, "total_loss", recorded_loss)
    gc.disable()
    try:
        train(tiny_train_cfg(iterations=3))
    finally:
        gc.enable()
    assert entered == [[], [True] * 4, [True] * 8]
