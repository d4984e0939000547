"""Adam optimizer, synthetic volume pairs, and the unsupervised training loop.

Training pairs are synthesized on the fly from a seeded stream: a base volume
of labeled shapes is deformed by a smooth, fold-free random field, so every
pair comes with its ground-truth correspondence. One pair per iteration,
batch size 1.

``train`` follows ``ops``' affinity rule: when the process may run on more
than one CPU (``ops.usable_cpus``; there is no option) and can fork, a
one-process ``concurrent.futures`` pool, forked, generates pair k + 1 while
the parent runs step k's forward and loss. The child runs the same
``generate_pair`` on the same seeded stream, so the bytes are those of the
inline loop, which one CPU runs. A failed fork or a dead child ends the pool,
and the call generates its remaining pairs inline from the same Generators.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import multiprocessing
import signal
from concurrent import futures
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from . import tensor as T
from .configio import finite, integer, sequence
from .deformation import jacobian_determinant, warp
from .losses import LossConfig, metrics_report, total_loss, warp_labels
from .model import (
    CheckpointError,
    ModelConfig,
    forward,
    init_model_params,
    load_checkpoint,
    save_checkpoint,
)
from .ops import usable_cpus
from .tensor import Tensor


class TrainingDiverged(RuntimeError):
    """``tensor`` names the first non-finite parameter or gradient, as
    ``"gradient of enc1.embed.weight"``, when one is; None otherwise."""

    def __init__(self, iteration, components, tensor=None):
        self.iteration = iteration
        self.components = components
        self.tensor = tensor
        culprit = f"{tensor} is not finite; " if tensor else ""
        super().__init__(
            f"training diverged at iteration {iteration}: {culprit}{components}"
        )


class UnsatisfiableWarp(ValueError):
    """The generator spec's warp folds on every draw ``generate_pair`` makes."""


# The base volume: one sphere per anchor, its center jittered by up to
# CENTER_JITTER voxels per axis, its intensity drawn from INTENSITY_RANGE, the
# image blurred with BLUR_SIGMA; the affine part scales by up to SCALE_JITTER.
# The smooth field is drawn up to WARP_DRAWS times, each at 0.7 times the last
# amplitude, until one is fold-free.
ANCHORS = np.array([(0.32, 0.34, 0.32), (0.68, 0.52, 0.40), (0.45, 0.68, 0.68)])
CENTER_JITTER = 1.5
INTENSITY_RANGE = (0.55, 1.0)
BLUR_SIGMA = 1.0
SCALE_JITTER = 0.05
WARP_DRAWS = 6

ADAM_BETA1 = 0.9  # Adam's first-moment decay
ADAM_EPS = 1e-8  # added to Adam's denominator


@dataclass
class SyntheticSpec:
    """Generator settings for labeled sphere volumes and their deformations.

    The base volume holds one labeled sphere per ``ANCHORS`` row, its radius
    drawn from ``radius_range``. The ground-truth field is a smooth random
    component (peak-normalized to ``warp_amplitude``, smoothed with
    ``warp_sigma``) plus a global translation of up to ``translation_max``
    voxels per axis and a mild isotropic scaling about the volume center; the
    latter two move structures without risking folds, keeping the
    pre-registration overlap well below 1.

    Every extent is at least 3, which the folding check needs, and every
    length lies between 0 and the largest extent.
    """

    extents: tuple = (32, 32, 32)
    radius_range: tuple = (4.5, 7.0)
    warp_amplitude: float = 3.0
    warp_sigma: float = 4.0
    translation_max: float = 3.25

    def __post_init__(self):
        def real(name, value):
            return float(finite(name, value))

        self.extents = sequence("extents", self.extents,
                                functools.partial(integer, minimum=3), 3)
        self.radius_range = sequence("radius_range", self.radius_range, real, 2)
        largest = max(self.extents)
        low, high = self.radius_range
        if not 0 <= low <= high <= largest:
            raise ValueError(f"radius_range must satisfy 0 <= low <= high <= {largest} "
                             f"(the largest extent), got {list(self.radius_range)}")
        for name in ("warp_amplitude", "warp_sigma", "translation_max"):
            if not 0 <= real(name, getattr(self, name)) <= largest:
                raise ValueError(f"{name} must lie in [0, {largest}] (the largest "
                                 f"extent), got {getattr(self, name)}")


@dataclass
class TrainConfig:
    lr: float = 1e-4
    beta2: float = 0.999
    iterations: int = 200
    seed: int = 0
    checkpoint_every: int = 100
    loss: LossConfig = field(default_factory=LossConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    data: SyntheticSpec = field(default_factory=SyntheticSpec)

    def __post_init__(self):
        if finite("lr", self.lr) <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not 0 <= finite("beta2", self.beta2) < 1:
            raise ValueError(f"beta2 must lie in [0, 1), got {self.beta2}")
        self.iterations = integer("iterations", self.iterations, 0)
        self.seed = integer("seed", self.seed, 0)
        self.checkpoint_every = integer("checkpoint_every", self.checkpoint_every, 1)
        if tuple(self.data.extents) != tuple(self.model.input_shape):
            raise ValueError(
                f"data extents {self.data.extents} != model input "
                f"{self.model.input_shape}"
            )


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def init_adam(params) -> AdamState:
    return AdamState(
        m={name: np.zeros_like(t.data) for name, t in params.items()},
        v={name: np.zeros_like(t.data) for name, t in params.items()},
        t=0,
    )


def adam_step(params, state: AdamState, cfg: TrainConfig) -> AdamState:
    """Standard bias-corrected Adam update, in place on the parameters."""
    state.t += 1
    b1, b2 = ADAM_BETA1, cfg.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, tns in params.items():
        if tns.grad is None:
            raise ValueError(f"adam_step: missing gradient for {name!r}")
        g = tns.grad
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        mhat = state.m[name] / bc1
        vhat = state.v[name] / bc2
        tns.data = tns.data - cfg.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    return state


def _render_base(spec: SyntheticSpec, rng: np.random.Generator):
    grid = np.indices(spec.extents).astype(np.float64)
    image = np.zeros(spec.extents)
    labels = np.zeros(spec.extents, dtype=np.int64)
    centers = ANCHORS * np.asarray(spec.extents)
    centers += rng.uniform(-CENTER_JITTER, CENTER_JITTER, size=centers.shape)
    for lab, center in enumerate(centers, start=1):
        radius = rng.uniform(*spec.radius_range)
        intensity = rng.uniform(*INTENSITY_RANGE)
        r2 = sum((grid[i] - center[i]) ** 2 for i in range(3))
        inside = r2 <= radius ** 2
        image[inside] = intensity
        labels[inside] = lab
    image = gaussian_filter(image, BLUR_SIGMA)
    return image.astype(np.float32), labels


def _smooth_random_field(spec: SyntheticSpec, rng: np.random.Generator,
                         amplitude: float) -> np.ndarray:
    v = rng.normal(size=(3,) + spec.extents)
    v = gaussian_filter(v, sigma=(0,) + (spec.warp_sigma,) * 3)
    peak = np.max(np.abs(v))
    if peak == 0:
        return np.zeros_like(v, dtype=np.float32)
    return (v / peak * amplitude).astype(np.float32)


def _affine_component(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    translation = rng.uniform(-spec.translation_max, spec.translation_max, size=3)
    scale = rng.uniform(-SCALE_JITTER, SCALE_JITTER)
    grid = np.indices(spec.extents).astype(np.float64)
    center = (np.asarray(spec.extents, dtype=np.float64) - 1.0) / 2.0
    u = scale * (grid - center[:, None, None, None])
    u += translation[:, None, None, None]
    return u.astype(np.float32)


def generate_pair(spec: SyntheticSpec, rng: np.random.Generator):
    """One (moving, fixed, moving labels, fixed labels, true field) sample.

    The ground-truth field is regenerated at reduced amplitude until it is
    fold-free, so emitted pairs always have a diffeomorphic correspondence.
    Raises ``ValueError`` when all ``WARP_DRAWS`` draws fold.
    """
    image, labels = _render_base(spec, rng)
    # zero amplitude means an identical pair, so it disables the affine part too
    if spec.warp_amplitude == 0:
        affine = np.zeros((3,) + spec.extents, dtype=np.float32)
    else:
        affine = _affine_component(spec, rng)
    amplitude = spec.warp_amplitude
    u_true = None
    for _ in range(WARP_DRAWS):
        candidate = _smooth_random_field(spec, rng, amplitude) + affine
        _, stats = jacobian_determinant(candidate)
        if stats.count == 0:
            u_true = candidate
            break
        amplitude *= 0.7
    if u_true is None:
        raise UnsatisfiableWarp(f"no fold-free field in {WARP_DRAWS} draws from "
                                f"warp_amplitude={spec.warp_amplitude}, each at 0.7 "
                                f"times the last; lower warp_amplitude")
    moving = image[None]
    fixed = warp(Tensor(moving), Tensor(u_true)).data
    fixed_labels = warp_labels(labels, u_true)
    return moving, fixed, labels, fixed_labels, u_true


def pair_rng(seed: int, iteration: int) -> np.random.Generator:
    """The seeded stream: pair k depends only on (seed, k)."""
    return np.random.default_rng([seed, iteration])


# Whether ``train`` may generate pairs in a forked child (the affinity rule).
_FORK_PRODUCER = usable_cpus() > 1 and "fork" in multiprocessing.get_all_start_methods()


def _pair_images(spec: SyntheticSpec, rng: np.random.Generator):
    """The moving and fixed volumes of ``generate_pair``: what a step reads."""
    return generate_pair(spec, rng)[:2]


def _ignore_sigint():
    """The pair producer's initializer: Ctrl-C interrupts the parent only.
    The child is forked with SIGINT blocked and unblocks it once ignored."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


@dataclass
class TrainResult:
    bag: dict
    adam: AdamState
    curve: list


def _check_finite(bag: dict, it: int, comp: dict, grads: bool):
    """Raise :class:`TrainingDiverged` at the first parameter, in the bag's
    order, whose value (or gradient, with ``grads``) is not finite. A missing
    gradient is left to ``adam_step``."""
    for name, t in bag.items():
        values = t.grad if grads else t.data
        if values is not None and not np.isfinite(values).all():
            raise TrainingDiverged(it, comp, f"gradient of {name}" if grads
                                   else f"parameter {name}")


def _step(cfg: TrainConfig, bag: dict, params, adam: AdamState, it: int,
          moving, fixed, job) -> dict:
    """Step ``it`` on one pair: forward, loss, backward and Adam; returns the
    loss components. The step's graph lives in this frame only, so what the
    backward walk leaves of it is freed on return, before the next forward.
    ``job`` (the next pair's, or None) is waited for before the backward.

    :class:`TrainingDiverged` stops the step at a non-finite loss, at the
    first non-finite gradient before Adam reads it, and at the first
    non-finite parameter after Adam wrote it, before any checkpoint holds it.
    """
    for t in bag.values():
        t.grad = None
    raw = forward(Tensor(moving), Tensor(fixed), params, cfg.model)
    loss, comp, _, _ = total_loss(Tensor(moving), Tensor(fixed), raw,
                                  cfg.loss, cfg.model.mode)
    if not np.isfinite(comp["loss"]):
        raise TrainingDiverged(it, comp)
    if job is not None:
        futures.wait((job,))
    loss.backward()
    _check_finite(bag, it, comp, grads=True)
    adam_step(bag, adam, cfg)
    _check_finite(bag, it, comp, grads=False)
    return comp


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages():
    """Have glibc's malloc keep the pages a freed step graph gives back.

    Each step frees its whole graph, so the top of the heap comes free at
    the end of the step. By default glibc then returns those pages, and the
    next forward faults every one of them in again: a 32³ diffeomorphic step
    took 14k minor faults, against 5k when each graph lived until the next
    one was built. Setting the trim threshold to its maximum keeps them for the rest of the
    process. Setting it also stops glibc from raising the mmap threshold as
    it goes, so the threshold is pinned at that dynamic rule's ceiling
    (32 MiB on 64-bit): smaller arrays come from the heap, as they do once
    the rule has run. Without glibc's ``mallopt`` this does nothing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)


def train(cfg: TrainConfig, out_dir=None, resume=None, log=None) -> TrainResult:
    """Run the unsupervised loop: forward, loss, backward, Adam, checkpoints.

    ``resume`` names a checkpoint stem (without extension) written by a
    previous run, one ``.symt`` file (see ``model.save_checkpoint``); the
    step counter, parameters, and moments all continue.
    ``log``, if given, prints the loss every ``log`` iterations.
    Raises :class:`TrainingDiverged` on a non-finite loss, gradient or
    updated parameter, naming the first such gradient or parameter, or when
    the 50-iteration moving average exceeds twice its running minimum.

    ``pair_rng`` is called on this thread once per iteration, in order. With
    a pair producer (see the module docstring), the call for pair k + 1 comes
    at the top of step k, and the pair is waited for before step k's backward,
    so the child never competes with the backward's jobs on ``ops``' worker.
    """
    if log is not None:
        integer("log", log, 1)
    _keep_freed_pages()
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    if resume is not None:
        path = f"{resume}.symt"
        ckpt_cfg, bag, params, (t, m, v) = load_checkpoint(path)
        differ = [f"{f.name} {getattr(ckpt_cfg, f.name)!r} in the checkpoint, "
                  f"{getattr(cfg.model, f.name)!r} in the config"
                  for f in fields(ModelConfig)
                  if getattr(ckpt_cfg, f.name) != getattr(cfg.model, f.name)]
        if differ:
            raise CheckpointError(f"{path}: model config differs from the train "
                                  f"config's: " + "; ".join(differ))
        adam = AdamState(m=m, v=v, t=t)
    else:
        bag, params = init_model_params(cfg.model, np.random.default_rng(cfg.seed))
        adam = init_adam(bag)

    pool = None
    # Forked, not spawned: the child starts with numpy and scipy imported.
    # It forks at the first submit, below, where ``ops``' worker and the BLAS
    # threads are idle. A daemonic process (a multiprocessing pool worker)
    # may not fork.
    if (_FORK_PRODUCER and cfg.iterations - adam.t >= 2
            and not multiprocessing.current_process().daemon):
        fork = multiprocessing.get_context("fork")
        pool = futures.ProcessPoolExecutor(1, mp_context=fork, initializer=_ignore_sigint)

    def stop():
        nonlocal pool
        if pool is not None:
            pool.shutdown(cancel_futures=True)
            pool = None

    def submit(it):
        """Pair ``it``'s Generator and its job in the pool. A failed fork or
        a dead child ends the pool for the rest of the call (the job is then
        None): the pool queued the job before it forked, so a live pool would
        fork again at the next submit and run that stale job."""
        rng = pair_rng(cfg.seed, it)
        # SIGINT stays blocked until the child ignores it, so Ctrl-C cannot
        # interrupt the child and print its traceback
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            return rng, pool.submit(_pair_images, cfg.data, rng)
        except (OSError, futures.BrokenExecutor):
            stop()
            return rng, None
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def take(rng, job):
        """The pair of ``rng``: the job's result, which raises what
        ``generate_pair`` raised, or generated here when there is no job or
        its child died."""
        if job is not None:
            try:
                return job.result()
            except futures.BrokenExecutor:
                stop()
        return _pair_images(cfg.data, rng)

    try:
        rng = job = None  # the next pair's Generator and its job in the pool
        if pool is not None:
            rng, job = submit(adam.t)

        curve = []
        window = []
        ma_min = None

        def write_checkpoint():
            if out_path is None:
                return
            save_checkpoint(out_path / f"checkpoint_{adam.t:06d}.symt", cfg.model, bag,
                            (adam.t, adam.m, adam.v))

        if adam.t == 0:
            write_checkpoint()

        for it in range(adam.t, cfg.iterations):
            if rng is None:
                rng = pair_rng(cfg.seed, it)
            moving, fixed = take(rng, job)
            rng = job = None
            if pool is not None and it + 1 < cfg.iterations:
                rng, job = submit(it + 1)
            comp = _step(cfg, bag, params, adam, it, moving, fixed, job)
            curve.append((it + 1, comp["loss"], comp["loss_sim"], comp["loss_reg"]))
            if log is not None and (it + 1) % log == 0:
                print(f"iter {it + 1:6d}  loss {comp['loss']:.6f}  "
                      f"sim {comp['loss_sim']:.6f}  reg {comp['loss_reg']:.6f}")

            window.append(comp["loss"])
            if len(window) > 50:
                window.pop(0)
            if len(window) == 50:
                ma = float(np.mean(window))
                ma_min = ma if ma_min is None else min(ma_min, ma)
                if ma > 2.0 * ma_min:
                    raise TrainingDiverged(it, {"moving_average": ma, "min": ma_min})

            if (it + 1) % cfg.checkpoint_every == 0 or it + 1 == cfg.iterations:
                write_checkpoint()
    finally:
        stop()

    if out_path is not None:
        write_curve(out_path / "loss.csv", curve)
    return TrainResult(bag=bag, adam=adam, curve=curve)


def write_curve(path, curve):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["iteration", "loss", "loss_sim", "loss_reg"])
        for row in curve:
            writer.writerow([row[0], repr(float(row[1])), repr(float(row[2])),
                             repr(float(row[3]))])


def register(moving: np.ndarray, fixed: np.ndarray, params, cfg: ModelConfig,
             mode: str, moving_labels=None, fixed_labels=None):
    """Single forward-only registration pass: field, warped volume, metrics.

    No tape is recorded, whether or not ``params`` require gradients, so the
    intermediate arrays are freed as soon as the next op has read them. The
    loss components are training's objective, at ``LossConfig()``, on this pair.
    """
    moving_t, fixed_t = Tensor(moving), Tensor(fixed)
    with T.no_grad():
        raw = forward(moving_t, fixed_t, params, cfg)
        _, components, u, warped = total_loss(moving_t, fixed_t, raw, LossConfig(), mode)
    metrics = metrics_report(u.data, components,
                             moving_labels=moving_labels,
                             fixed_labels=fixed_labels)
    return u.data, warped.data, metrics
