"""The benchmark workloads: seeded set-up, closed-loop ops and per-op checks.

A session prepares its inputs from the seed, then runs ops on request. An op
is one training iteration or one ``register`` call; each op starts only after
the previous one has finished (a closed loop with one client).
"""

from __future__ import annotations

import contextlib
import io
import math
import mmap
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from symtrans import cli, oracles, training
from symtrans.model import ModelConfig, init_model_params, save_checkpoint
from symtrans.svol import KIND_IMAGE, KIND_LABELS, read_svol, write_svol
from symtrans.training import SyntheticSpec, TrainConfig, generate_pair, pair_rng

REGISTER_PAIRS = 4
ORACLE_VOXELS = 512
ORACLE_TOL = 1e-5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str    # "train" or "register"
    extent: int  # cubic volume extent
    mode: str    # "displacement" or "diffeomorphic"

    def model_config(self) -> ModelConfig:
        """The A3 desk architecture at this workload's extent and mode."""
        return ModelConfig(input_shape=(self.extent,) * 3, base_dim=8,
                           encoder_depths=(1, 1, 1), decoder_depths=(1, 1, 1),
                           mode=self.mode)

    def spec(self) -> SyntheticSpec:
        return SyntheticSpec(extents=(self.extent,) * 3)


WORKLOADS = {w.name: w for w in (
    Workload("train-32-disp", "train", 32, "displacement"),
    Workload("train-32-diff", "train", 32, "diffeomorphic"),
    Workload("register-64-diff", "register", 64, "diffeomorphic"),
)}


@dataclass
class Op:
    start: float
    end: float = 0.0
    ok: bool | None = None  # None until checked

    @property
    def seconds(self) -> float:
        return self.end - self.start


class HostSpeed:
    """A fixed kernel, timed between ops, that measures the host's speed.

    On a host shared with other tenants the speed of the CPU drifts by up to
    1.5x within minutes, and every op of a run slows alike. The kernel mixes
    the kinds of work symtrans does: a BLAS product, a gather and elementwise
    passes over a 64^3 field, a pass over a 16 MB buffer (more than the
    process's share of the shared caches), and first touches of fresh pages
    (a ``register`` op spends a sixth of its time in the system, faulting in
    new arrays). It does not call symtrans.
    Sampled before the first op and after every op, it scales each op to
    ``REFERENCE_S`` over the mean of the samples on either side of it: op
    times at one host speed.
    """

    REFERENCE_S = 0.0090  # median kernel time, reference machine in the README
    SHARE = 0.04  # of an op's time spent timing the kernel after it
    MIN_RUNS = 3  # kernel runs a sample takes at least; the first is cache-cold
    FAULT_BYTES = 2 << 20

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((384, 384)).astype(np.float32)
        self.v = rng.standard_normal((3, 64, 64, 64)).astype(np.float32)
        self.index = rng.integers(0, self.v.size, 200_000)
        self.stream = np.ones(4 << 20, np.float32)
        # outputs written in place and fresh pages mapped directly: the kernel
        # never calls malloc, so it does not move the allocator's state, and
        # its arrays add a constant to peak_rss_mb
        self.out = (np.empty_like(self.a), np.empty(self.index.size, np.float32),
                    np.empty_like(self.v))
        self.samples: list[float] = []

    def run_once(self):
        product, gathered, field = self.out
        np.matmul(self.a, self.a, out=product)
        np.take(self.v.ravel(), self.index, out=gathered, mode="clip")
        np.exp(self.v, out=field)
        np.multiply(field, self.v, out=field)
        np.add(field, self.v[:, ::-1], out=field)
        np.negative(self.stream, out=self.stream)
        with mmap.mmap(-1, self.FAULT_BYTES) as pages:
            view = np.frombuffer(pages, np.uint8)
            view[::mmap.PAGESIZE] = 1
            del view  # the mapping cannot close while a view holds it

    def sample(self, after_s: float):
        """Time the kernel for ``SHARE`` of ``after_s``; keep its median time."""
        times = []
        while len(times) < self.MIN_RUNS or sum(times) < self.SHARE * after_s:
            start = perf_counter()
            self.run_once()
            times.append(perf_counter() - start)
        self.samples.append(median(times))

    def scaled(self, seconds: list[float]) -> list[float]:
        """The ops' wall seconds as seconds at reference speed."""
        s = self.samples
        return [t * 2 * self.REFERENCE_S / (s[i] + s[i + 1]) for i, t in enumerate(seconds)]


class OpClock:
    """Opens and closes ops, telling the tracer (if any) which op is current.

    With ``host`` set, a host-speed sample is taken after every op, outside it.
    """

    def __init__(self):
        self.ops: list[Op] = []
        self.tracer = None
        self.host: HostSpeed | None = None

    def begin(self):
        self.ops.append(Op(perf_counter()))
        if self.tracer is not None:
            self.tracer.op = len(self.ops) - 1

    def end(self, ok=None):
        op = self.ops[-1]
        op.end = perf_counter()
        op.ok = ok
        if self.tracer is not None:
            self.tracer.op = None
        if self.host is not None:
            self.host.sample(op.seconds)


class TrainSession:
    """``training.train`` on the desk config, resumed from its last checkpoint.

    Each ``run`` is one ``train`` call at the default checkpoint cadence: it
    loads the last checkpoint in its first op and writes one in its last, as
    the program's own callers do once per training run.
    """

    def __init__(self, workload: Workload, seed: int, work_dir: Path, clock: OpClock):
        self.workload = workload
        self.seed = seed
        self.dir = work_dir / "train"
        self.clock = clock
        self.step = 0
        self._first_in_call = False
        self._pair_rng = training.pair_rng
        training.pair_rng = self.pair_rng

    def close(self):
        training.pair_rng = self._pair_rng
        shutil.rmtree(self.dir, ignore_errors=True)

    def config(self, iterations: int) -> TrainConfig:
        return TrainConfig(lr=5e-3, beta2=0.99, iterations=iterations, seed=self.seed,
                           model=self.workload.model_config(), data=self.workload.spec())

    def prepare(self):
        """Model init and the step-0 checkpoint write."""
        shutil.rmtree(self.dir, ignore_errors=True)
        training.train(self.config(0), out_dir=self.dir)
        self.step = 0

    def pair_rng(self, seed, iteration):
        """Called by ``train`` at the top of every iteration: an op boundary."""
        if self._first_in_call:
            self._first_in_call = False
        else:
            self.clock.end()
            self.clock.begin()
        return self._pair_rng(seed, iteration)

    def run(self, count: int):
        """``count`` iterations in one ``train`` call resumed from the last
        checkpoint."""
        first = len(self.clock.ops)
        self._first_in_call = True
        self.clock.begin()
        try:
            result = training.train(self.config(self.step + count), out_dir=self.dir,
                                    resume=self.dir / f"checkpoint_{self.step:06d}")
        except Exception:
            # the op in progress failed; ops before it passed train's own
            # finiteness check, and the next call resumes from the same step
            traceback.print_exc()
            self.clock.end(ok=False)
            for op in self.clock.ops[first:-1]:
                op.ok = True
            return
        self.clock.end()
        self.step += count
        for op, row in zip(self.clock.ops[first:], result.curve, strict=True):
            op.ok = all(math.isfinite(v) for v in row[1:])

    def check(self):
        """Train ops are checked as their ``train`` call returns."""


class RegisterSession:
    """In-process ``symtrans register --mode diff`` over seeded SVOL pairs."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path, clock: OpClock):
        self.workload = workload
        self.seed = seed
        self.dir = work_dir / "register"
        self.clock = clock
        self.pending = []  # (op index, pair index, field path, warped path)

    def pair_files(self, k: int):
        d = self.dir / f"pair_{k}"
        return {name: d / f"{name}.svol"
                for name in ("moving", "fixed", "moving_labels", "fixed_labels")}

    def prepare(self):
        """Checkpoint write plus the labelled volume pairs, all from the seed."""
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "out").mkdir(parents=True)
        cfg = self.workload.model_config()
        bag, _ = init_model_params(cfg, np.random.default_rng(self.seed))
        save_checkpoint(self.dir / "model.symt", cfg, bag)
        self.moving = []
        for k in range(REGISTER_PAIRS):
            moving, fixed, lm, lf, _ = generate_pair(self.workload.spec(),
                                                     pair_rng(self.seed, k))
            files = self.pair_files(k)
            files["moving"].parent.mkdir()
            write_svol(files["moving"], moving, KIND_IMAGE)
            write_svol(files["fixed"], fixed, KIND_IMAGE)
            write_svol(files["moving_labels"], lm.astype(np.float32), KIND_LABELS)
            write_svol(files["fixed_labels"], lf.astype(np.float32), KIND_LABELS)
            self.moving.append(moving)
        self.pending = []

    def run(self, count: int):
        for _ in range(count):
            index = len(self.clock.ops)
            k = index % REGISTER_PAIRS
            files = self.pair_files(k)
            field = self.dir / "out" / f"op{index}_field.svol"
            warped = self.dir / "out" / f"op{index}_warped.svol"
            argv = ["register", "--moving", str(files["moving"]),
                    "--fixed", str(files["fixed"]),
                    "--checkpoint", str(self.dir / "model.symt"), "--mode", "diff",
                    "--out-field", str(field), "--out-warped", str(warped),
                    "--moving-labels", str(files["moving_labels"]),
                    "--fixed-labels", str(files["fixed_labels"])]
            # register prints its metrics; keep them off the runner's stdout,
            # whose last line must be the benchmark result
            stdout, stderr = io.StringIO(), io.StringIO()
            self.clock.begin()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
            except Exception:
                self.clock.end(ok=False)
                traceback.print_exc()
                continue
            self.clock.end()
            if code != 0:
                self.clock.ops[-1].ok = False
                print(f"register exited {code}: {stderr.getvalue()}", file=sys.stderr)
                continue
            self.pending.append((index, k, field, warped))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def check(self):
        """Check every op's written field and warped volume, then delete them."""
        for index, k, field_path, warped_path in self.pending:
            field, _ = read_svol(field_path)
            warped, _ = read_svol(warped_path)
            rng = np.random.default_rng([self.seed, index])
            finite = np.isfinite(field).all() and np.isfinite(warped).all()
            self.clock.ops[index].ok = bool(
                finite and warp_matches_oracle(self.moving[k], field, warped, rng))
            field_path.unlink()
            warped_path.unlink()
        self.pending = []


def oracle_warp_at(image, field, points):
    """``oracles.trilinear_reference`` of ``image`` warped by ``field`` at ``points``.

    Each voxel's clamped target is reduced to the 2x2x2 patch around it with
    the fractional offset at the patch origin. The oracle then reads the same
    eight corners with the same weights, in float64, as on the whole volume,
    so the values are identical at a fraction of the cost.
    """
    hi = np.asarray(image.shape[1:]) - 1.0
    out = []
    for p in points:
        q = np.clip(p + field[(slice(None),) + tuple(p)].astype(np.float64), 0.0, hi)
        lo = np.minimum(np.floor(q), hi - 1.0).astype(np.int64)
        patch = image[:, lo[0]:lo[0] + 2, lo[1]:lo[1] + 2, lo[2]:lo[2] + 2]
        offsets = np.zeros((3, 2, 2, 2))
        offsets[:, 0, 0, 0] = q - lo
        out.append(oracles.trilinear_reference(patch, offsets)[:, 0, 0, 0])
    return np.array(out)


def warp_matches_oracle(image, field, warped, rng) -> bool:
    points = np.stack([rng.integers(0, e, ORACLE_VOXELS) for e in image.shape[1:]], 1)
    ref = oracle_warp_at(image, field, points)
    got = np.array([warped[(slice(None),) + tuple(p)] for p in points])
    return bool(np.max(np.abs(got - ref)) <= ORACLE_TOL)


def make_session(workload: Workload, seed: int, work_dir: Path, clock: OpClock):
    cls = TrainSession if workload.kind == "train" else RegisterSession
    return cls(workload, seed, work_dir, clock)
