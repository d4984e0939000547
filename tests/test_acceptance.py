"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from symtrans.cli import main
from symtrans.deformation import compose, integrate, jacobian_determinant
from symtrans.losses import dice
from symtrans.model import ModelConfig, bind_model_params, model_count_parameters
from symtrans.svol import KIND_IMAGE, SvolError, read_svol, write_svol
from symtrans.tensor import Tensor
from symtrans.training import (
    SyntheticSpec,
    TrainConfig,
    TrainingDiverged,
    generate_pair,
    pair_rng,
    register,
    train,
)


def criterion(tag, passed, detail):
    print(f"\n[{tag}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{tag}: {detail}"


# --- A1: gradient integrity ----------------------------------------------------

def test_a1_gradient_integrity():
    from symtrans.verify import run_suites

    t0 = time.time()
    checks = run_suites(["gradcheck"])
    elapsed = time.time() - t0
    failed = [c for c in checks if not c[1]]
    criterion(
        "A1", not failed and elapsed < 600,
        f"{len(checks)} gradient checks green (ops at 1e-4 std / 1e-6 wide, "
        f"full tiny 16^3 model included) in {elapsed:.0f}s"
        + (f"; failures: {failed}" if failed else ""),
    )


# --- A2: oracle equivalence ----------------------------------------------------

def test_a2_oracle_equivalence():
    from symtrans.verify import oracle_suite

    checks = oracle_suite()
    failed = [c for c in checks if not c[1]]
    criterion(
        "A2", not failed,
        "conv3d (dense/grouped/depthwise), attention, warp, compose, Adam and "
        "the objective each match their wide-precision brute-force oracle on "
        "20 random instances at "
        "max abs diff < 1e-5" + (f"; failures: {failed}" if failed else ""),
    )


# --- A3 + A4 share one desk-scale training run ----------------------------------

DESK_MODEL = ModelConfig(input_shape=(32, 32, 32), base_dim=8,
                         encoder_depths=(1, 1, 1), decoder_depths=(1, 1, 1))
DESK_DATA = SyntheticSpec()  # 32^3, 3 foreground labels


@pytest.fixture(scope="module")
def desk_run():
    cfg = TrainConfig(lr=5e-3, beta2=0.99, iterations=200, seed=42,
                      checkpoint_every=1000, model=DESK_MODEL, data=DESK_DATA)
    t0 = time.time()
    result = train(cfg)
    train_time = time.time() - t0
    params = bind_model_params(DESK_MODEL, result.bag)
    pairs = [generate_pair(DESK_DATA, pair_rng(991, k)) for k in range(10)]
    evals = []
    for moving, fixed, lm, lf, _ in pairs:
        _, _, disp = register(moving, fixed, params, DESK_MODEL,
                              mode="displacement", moving_labels=lm,
                              fixed_labels=lf)
        _, _, diff = register(moving, fixed, params, DESK_MODEL,
                              mode="diffeomorphic", moving_labels=lm,
                              fixed_labels=lf)
        _, pre = dice(lm, lf)
        evals.append({"pre": pre, "disp": disp, "diff": diff})
    return {"curve": result.curve, "train_time": train_time, "evals": evals}


def test_a3_training_effect(desk_run):
    losses = np.array([row[1] for row in desk_run["curve"]])
    initial = losses[:20].mean()
    final = losses[-20:].mean()
    ratio = final / initial
    pre = float(np.mean([e["pre"] for e in desk_run["evals"]]))
    post = float(np.mean([e["disp"]["dsc_mean"] for e in desk_run["evals"]]))
    ok = (ratio < 0.5 and post - pre >= 0.15 and post >= 0.80
          and desk_run["train_time"] < 1800)
    criterion(
        "A3", ok,
        f"200 iterations on seeded 32^3 pairs (3 labels): smoothed loss "
        f"{initial:.5f} -> {final:.5f} (ratio {ratio:.2f} < 0.5), mean "
        f"foreground DSC {pre:.3f} -> {post:.3f} (gain {post - pre:.3f} >= "
        f"0.15, final >= 0.80), trained in {desk_run['train_time']:.0f}s",
    )


def test_a4_diffeomorphism_contrast(desk_run):
    worst_frac = 0.0
    violations = []
    disp_total = diff_total = 0
    for i, e in enumerate(desk_run["evals"]):
        disp_count = e["disp"]["folding_count"]
        diff_count = e["diff"]["folding_count"]
        disp_total += disp_count
        diff_total += diff_count
        worst_frac = max(worst_frac, e["diff"]["folding_fraction"])
        if e["diff"]["folding_fraction"] > 0.001:
            violations.append((i, "fraction", e["diff"]["folding_fraction"]))
        if diff_count > 0.10 * disp_count:
            violations.append((i, "count", diff_count, disp_count))
    criterion(
        "A4", not violations,
        f"same checkpoint, 10 test pairs: diffeomorphic folding "
        f"{diff_total} voxels total (worst fraction {worst_frac:.5f} <= 0.001) "
        f"vs displacement {disp_total}; per-pair diff <= 10% of disp"
        + (f"; violations: {violations}" if violations else ""),
    )


# --- A5: integration invariants -------------------------------------------------

def test_a5_integration_invariants():
    from scipy.ndimage import gaussian_filter

    zero = integrate(Tensor(np.zeros((3, 8, 8, 8), np.float32)))
    exact_zero = bool(np.all(zero.data == 0.0))

    const_err = 0.0
    for c in ((0.8, 0.0, 0.0), (0.2, -0.5, 0.4)):
        v = np.zeros((3, 10, 10, 10))
        for ax in range(3):
            v[ax] = c[ax]
        u = integrate(Tensor(v)).data
        interior = u[:, 2:-2, 2:-2, 2:-2]
        const_err = max(const_err, float(np.max(np.abs(
            interior - np.asarray(c)[:, None, None, None]))))

    inv_err = 0.0
    for seed in range(3):
        rng = np.random.default_rng(700 + seed)
        v = gaussian_filter(rng.normal(size=(3, 12, 12, 12)), (0, 3, 3, 3))
        v = v / np.max(np.abs(v)) * 2.0
        fwd = integrate(Tensor(v), steps=7)
        bwd = integrate(Tensor(-v), steps=7)
        rt = compose(fwd, bwd).data
        inv_err = max(inv_err, float(np.max(np.abs(rt[:, 2:-2, 2:-2, 2:-2]))))

    ok = exact_zero and const_err < 1e-4 and inv_err < 0.1
    criterion(
        "A5", ok,
        f"integrate(0) exactly 0: {exact_zero}; constant-velocity interior "
        f"error {const_err:.2e} < 1e-4; inverse-consistency max interior "
        f"error {inv_err:.3f} < 0.1 voxel (max|v|=2, T=7)",
    )


# --- A6: parameter-efficiency claim ---------------------------------------------

def test_a6_parameter_efficiency(capsys):
    code = main(["count", "--config", "/dev/null/nonexistent", "--json"])
    assert code == 3  # missing config file is an I/O error

    cfg = ModelConfig(input_shape=(16, 16, 16), base_dim=48)
    import dataclasses
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(dataclasses.asdict(cfg), f)
        path = f.name
    code = main(["count", "--config", path, "--compare-msa", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out.strip().splitlines()[-1])
    stages = report["msa_comparison"]
    dims = [s["dim"] for s in stages]
    heads = [s["heads"] for s in stages]
    strictly_fewer = all(s["cemsa_params"] < s["msa_params"] for s in stages)
    one_over_g = all(s["gconv_weight_params"] * s["dim"]
                     == s["gconv_weight_params_dense"] for s in stages)
    ok = dims == [48, 96, 192] and heads == [2, 4, 8] and strictly_fewer and one_over_g
    detail = "; ".join(
        f"stage {s['stage']} (dim {s['dim']}, s_eff {s['kernel']}): CEMSA "
        f"{s['cemsa_params']} < MSA {s['msa_params']}" for s in stages)
    criterion(
        "A6", ok,
        f"cmd_count at paper-scale dims with clamped kernels: {detail}; "
        f"grouped-conv weight term shows the exact 1/g reduction",
    )


# --- A7: ablation harness -------------------------------------------------------

def test_a7_ablation_harness():
    model = ModelConfig(input_shape=(16, 16, 16), base_dim=8,
                        encoder_depths=(1, 1, 1), decoder_depths=(1, 1, 1))
    data = SyntheticSpec(extents=(16, 16, 16), radius_range=(2.5, 4.0),
                         warp_amplitude=1.5, warp_sigma=2.5,
                         translation_max=1.0)
    counts = {}
    for placement in ("symmetric", "encoder_only", "decoder_only", "bottom_only"):
        cfg = TrainConfig(lr=1e-3, iterations=100, seed=5, checkpoint_every=1000,
                          model=dataclasses.replace(model, placement=placement), data=data)
        try:
            result = train(cfg)
        except TrainingDiverged as e:
            criterion("A7", False, f"{placement} diverged: {e}")
            return
        counts[placement] = model_count_parameters(cfg.model)
        assert np.isfinite(result.curve[-1][1])
    criterion(
        "A7", len(counts) == 4,
        "all four placements trained 100 desk-scale iterations without "
        "divergence; parameter counts: "
        + ", ".join(f"{k}={v}" for k, v in counts.items()),
    )


# --- A8: determinism and formats -------------------------------------------------

def test_a8_determinism_and_formats(tmp_path, capsys):
    cfg = {
        "iterations": 3,
        "seed": 21,
        "checkpoint_every": 3,
        "model": {"input_shape": [16, 16, 16], "base_dim": 8,
                  "encoder_depths": [1, 1, 1], "decoder_depths": [1, 1, 1]},
        "data": {"extents": [16, 16, 16], "radius_range": [2.5, 4.0],
                 "warp_amplitude": 1.5, "warp_sigma": 2.5,
                 "translation_max": 1.0},
    }
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(cfg))
    for sub in ("a", "b"):
        code = main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / sub)])
        capsys.readouterr()
        assert code == 0
    ckpt_same = ((tmp_path / "a" / "checkpoint_000003.symt").read_bytes()
                 == (tmp_path / "b" / "checkpoint_000003.symt").read_bytes())
    curve_same = ((tmp_path / "a" / "loss.csv").read_bytes()
                  == (tmp_path / "b" / "loss.csv").read_bytes())

    vol = np.random.default_rng(0).normal(size=(2, 4, 4, 4)).astype(np.float32)
    p1 = tmp_path / "v.svol"
    p2 = tmp_path / "v2.svol"
    write_svol(p1, vol, KIND_IMAGE)
    back, kind = read_svol(p1)
    write_svol(p2, back, kind)
    svol_identity = (p1.read_bytes() == p2.read_bytes()
                     and np.array_equal(back, vol))

    blob = p1.read_bytes()
    bad = tmp_path / "bad.svol"
    exit_codes = []
    for corrupt in (b"XXXX" + blob[4:],         # magic
                    blob[:4] + b"\x07\x00\x00\x00" + blob[8:],  # version
                    blob[:-3]):                  # truncated payload
        bad.write_bytes(corrupt)
        exit_codes.append(main(["eval", "--field", str(bad)]))
        capsys.readouterr()
    missing_code = main(["eval", "--field", str(tmp_path / "missing.svol")])
    capsys.readouterr()

    ok = (ckpt_same and curve_same and svol_identity
          and exit_codes == [2, 2, 2] and missing_code == 3)
    criterion(
        "A8", ok,
        f"same-seed checkpoints byte-identical: {ckpt_same}; loss curves "
        f"byte-identical: {curve_same}; SVOL round-trip identity: "
        f"{svol_identity}; malformed magic/version/length exit codes "
        f"{exit_codes} (expect 2s); missing file exit {missing_code} (expect 3)",
    )
