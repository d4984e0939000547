import json
import platform
import struct
import threading

import numpy as np
import pytest
import scipy

from symtrans import deformation, ops, training
from symtrans import tensor as T
from symtrans.cli import main
from symtrans.model import load_checkpoint
from symtrans.svol import (
    KIND_DISPLACEMENT,
    KIND_IMAGE,
    KIND_LABELS,
    SvolError,
    read_svol,
    write_svol,
)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# --- SVOL format ---------------------------------------------------------------

def test_svol_round_trip_identity(tmp_path):
    rng = np.random.default_rng(0)
    vol = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
    p = tmp_path / "v.svol"
    write_svol(p, vol, KIND_IMAGE)
    back, kind = read_svol(p)
    assert kind == KIND_IMAGE
    np.testing.assert_array_equal(back, vol)
    p2 = tmp_path / "v2.svol"
    write_svol(p2, back, kind)
    assert p.read_bytes() == p2.read_bytes()


def test_svol_three_dim_input_gets_channel_axis(tmp_path):
    labs = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    p = tmp_path / "l.svol"
    write_svol(p, labs, KIND_LABELS)
    back, kind = read_svol(p)
    assert back.shape == (1, 2, 2, 2)


def test_svol_distinct_malformed_errors(tmp_path):
    good = tmp_path / "good.svol"
    write_svol(good, np.zeros((1, 1, 1, 1), np.float32), KIND_IMAGE)
    blob = good.read_bytes()

    bad_magic = tmp_path / "m.svol"
    bad_magic.write_bytes(b"XVOL" + blob[4:])
    with pytest.raises(SvolError, match="magic"):
        read_svol(bad_magic)

    bad_version = tmp_path / "v.svol"
    bad_version.write_bytes(blob[:4] + b"\x09\x00\x00\x00" + blob[8:])
    with pytest.raises(SvolError, match="version"):
        read_svol(bad_version)

    truncated = tmp_path / "t.svol"
    truncated.write_bytes(blob[:-2])
    with pytest.raises(SvolError, match="length"):
        read_svol(truncated)


def test_svol_non_finite_payload_refused_at_read(tmp_path, capsys):
    vol = np.zeros((1, 16, 16, 16), np.float32)
    vol[0, 3, 4, 5] = np.nan
    bad = tmp_path / "nan.svol"
    write_svol(bad, vol, KIND_IMAGE)
    with pytest.raises(SvolError, match="non-finite"):
        read_svol(bad)
    vol[0, 3, 4, 5] = np.inf
    write_svol(bad, vol, KIND_DISPLACEMENT)
    code, _, err = run(["eval", "--field", str(bad)], capsys)
    assert code == 2
    assert str(bad) in err and "non-finite" in err


# --- gen-data ------------------------------------------------------------------

def test_gen_data_zero_pairs_manifest_only(tmp_path, capsys):
    out = tmp_path / "data"
    code, stdout, _ = run(["gen-data", "--pairs", "0", "--out", str(out),
                           "--seed", "5"], capsys)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == []
    assert manifest["seed"] == 5


def test_gen_data_determinism_and_fold_free(tmp_path, capsys):
    spec = {"extents": [16, 16, 16], "radius_range": [2.5, 4.0],
            "warp_amplitude": 1.5, "warp_sigma": 2.5, "translation_max": 1.0}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code, _, _ = run(["gen-data", "--spec", str(spec_path), "--pairs", "2",
                          "--out", str(out), "--seed", "3"], capsys)
        assert code == 0
    for rel in ("pair_000/moving.svol", "pair_001/true_field.svol",
                "manifest.json"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()
    # cross-command audit: generated fields are fold-free per cmd_eval
    code, stdout, _ = run(["eval", "--field", str(a / "pair_000/true_field.svol")],
                          capsys)
    assert code == 0
    metrics = json.loads(stdout.strip().splitlines()[-1])
    assert metrics["folding_count"] == 0


def test_gen_data_bad_spec_exit_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"num_labelz": 3}))
    code, _, err = run(["gen-data", "--spec", str(spec_path), "--pairs", "1",
                        "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "num_labelz" in err


# a spec whose warp folds on every allowed draw
FOLDING_SPEC = {"extents": [16, 16, 16], "warp_amplitude": 40.0, "max_retries": 1,
                "radius_range": [2.5, 4.0]}


def test_gen_data_unsatisfiable_warp_exit_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(FOLDING_SPEC))
    code, _, err = run(["gen-data", "--spec", str(spec_path), "--pairs", "1",
                        "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "warp_amplitude" in err and "max_retries" in err
    assert "Traceback" not in err


def test_train_unsatisfiable_warp_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({
        "iterations": 1,
        "model": {"input_shape": [16, 16, 16], "base_dim": 8,
                  "encoder_depths": [1, 1, 1], "decoder_depths": [1, 1, 1]},
        "data": FOLDING_SPEC,
    }))
    code, _, err = run(["train", "--config", str(cfg_path),
                        "--out", str(tmp_path / "run")], capsys)
    assert code == 2
    assert "warp_amplitude" in err and "max_retries" in err


# --- train / register / eval ---------------------------------------------------

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_train")
    cfg = {
        "iterations": 2,
        "seed": 11,
        "checkpoint_every": 2,
        "model": {"input_shape": [16, 16, 16], "base_dim": 8,
                  "encoder_depths": [1, 1, 1], "decoder_depths": [1, 1, 1]},
        "data": {"extents": [16, 16, 16], "radius_range": [2.5, 4.0],
                 "warp_amplitude": 1.5, "warp_sigma": 2.5,
                 "translation_max": 1.0},
    }
    cfg_path = tmp / "train.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp / "run"
    code = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    return tmp, cfg, out


def test_train_outputs(trained):
    tmp, cfg, out = trained
    assert (out / "checkpoint_000002.symt").exists()
    assert (out / "checkpoint_000002.opt").exists()
    lines = (out / "loss.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,loss,loss_sim,loss_reg"
    assert len(lines) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert "loss.csv" in manifest["outputs"]


def test_train_invalid_lambda_exit_2(tmp_path, capsys):
    cfg = {"iterations": 1, "loss": {"lambda_reg": -1.0},
           "model": {"input_shape": [16, 16, 16]},
           "data": {"extents": [16, 16, 16]}}
    cfg_path = tmp_path / "t.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run(["train", "--config", str(cfg_path),
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "lambda" in err


@pytest.mark.parametrize("field,value", [
    ("iterations", 1.5), ("seed", "x"), ("checkpoint_every", 2.0),
    ("lr", float("nan")), ("eps", float("inf")),
    ("beta1", 1.0), ("beta2", -0.1),
])
def test_train_config_bad_value_exit_2(tmp_path, capsys, field, value):
    cfg = {"iterations": 0, field: value, "model": {"input_shape": [16, 16, 16]},
           "data": {"extents": [16, 16, 16]}}
    cfg_path = tmp_path / "t.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run(["train", "--config", str(cfg_path),
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert str(cfg_path) in err and field in err
    assert not (tmp_path / "o").exists()


def test_count_config_non_integral_extent_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "m.json"
    cfg_path.write_text(json.dumps({"input_shape": [32.5, 32, 32]}))
    code, _, err = run(["count", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert str(cfg_path) in err and "input_shape[0]" in err


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                  '{"seed": ' + "9" * 5000 + "}"])
def test_config_json_past_the_parser_limits_exit_2(tmp_path, capsys, text):
    cfg_path = tmp_path / "t.json"
    cfg_path.write_text(text)
    code, _, err = run(["train", "--config", str(cfg_path),
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert f"{cfg_path} is not valid JSON" in err


def test_train_missing_config_exit_3(tmp_path, capsys):
    code, _, _ = run(["train", "--config", str(tmp_path / "nope.json"),
                      "--out", str(tmp_path / "o")], capsys)
    assert code == 3


def test_register_and_eval_round_trip(trained, tmp_path, capsys):
    tmp, cfg, out = trained
    data_dir = tmp_path / "pairs"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(cfg["data"]))
    code, _, _ = run(["gen-data", "--spec", str(spec_path), "--pairs", "1",
                      "--out", str(data_dir), "--seed", "9"], capsys)
    assert code == 0
    pair = data_dir / "pair_000"
    field = tmp_path / "u.svol"
    warped = tmp_path / "w.svol"
    code, stdout, _ = run([
        "register", "--moving", str(pair / "moving.svol"),
        "--fixed", str(pair / "fixed.svol"),
        "--checkpoint", str(out / "checkpoint_000002.symt"),
        "--mode", "diff", "--out-field", str(field),
        "--out-warped", str(warped),
        "--moving-labels", str(pair / "moving_labels.svol"),
        "--fixed-labels", str(pair / "fixed_labels.svol"),
    ], capsys)
    assert code == 0
    metrics = json.loads(stdout.strip().splitlines()[-1])
    assert {"loss", "loss_sim", "loss_reg", "folding_count",
            "folding_fraction", "dsc_mean"} <= set(metrics)
    u, kind = read_svol(field)
    assert kind == KIND_DISPLACEMENT and u.shape == (3, 16, 16, 16)
    # output SVOL round-trips bitwise
    again = tmp_path / "u2.svol"
    write_svol(again, u, kind)
    assert field.read_bytes() == again.read_bytes()

    # CLI metrics equal library metrics on the same inputs
    code, stdout, _ = run(["eval", "--field", str(field),
                           "--moving-labels", str(pair / "moving_labels.svol"),
                           "--fixed-labels", str(pair / "fixed_labels.svol")],
                          capsys)
    assert code == 0
    eval_metrics = json.loads(stdout.strip().splitlines()[-1])
    from symtrans.losses import metrics_report
    from symtrans.svol import read_labels

    lib = metrics_report(u, None,
                         moving_labels=read_labels(pair / "moving_labels.svol"),
                         fixed_labels=read_labels(pair / "fixed_labels.svol"))
    assert eval_metrics["folding_count"] == lib["folding_count"]
    assert eval_metrics["dsc_mean"] == pytest.approx(lib["dsc_mean"], abs=1e-12)
    assert metrics["dsc_mean"] == pytest.approx(lib["dsc_mean"], abs=1e-12)


def test_register_shape_mismatch_exit_2(trained, tmp_path, capsys):
    tmp, cfg, out = trained
    wrong = tmp_path / "wrong.svol"
    write_svol(wrong, np.zeros((1, 32, 32, 32), np.float32), KIND_IMAGE)
    code, _, err = run([
        "register", "--moving", str(wrong), "--fixed", str(wrong),
        "--checkpoint", str(out / "checkpoint_000002.symt"),
    ], capsys)
    assert code == 2
    assert "shape" in err


def register_argv(tmp_path, out, label_extents=(16, 16, 16)):
    vol = tmp_path / "vol.svol"
    write_svol(vol, np.zeros((1, 16, 16, 16), np.float32), KIND_IMAGE)
    labels = tmp_path / "labels.svol"
    write_svol(labels, np.ones(label_extents, np.float32), KIND_LABELS)
    argv = ["register", "--moving", str(vol), "--fixed", str(vol),
            "--checkpoint", str(out / "checkpoint_000002.symt")]
    return argv, str(labels)


def refuse_forward(*args, **kwargs):
    raise AssertionError("register ran a forward pass")


@pytest.mark.parametrize("flag", ["--moving-labels", "--fixed-labels"])
def test_register_one_sided_labels_exit_2(trained, tmp_path, capsys, monkeypatch,
                                          flag):
    _, _, out = trained
    argv, labels = register_argv(tmp_path, out)
    monkeypatch.setattr("symtrans.cli.register", refuse_forward)
    code, _, err = run(argv + [flag, labels], capsys)
    assert code == 2
    assert "provide both --moving-labels and --fixed-labels or neither" in err


def test_register_label_extents_mismatch_exit_2(trained, tmp_path, capsys,
                                                monkeypatch):
    _, _, out = trained
    argv, labels = register_argv(tmp_path, out, label_extents=(8, 8, 8))
    monkeypatch.setattr("symtrans.cli.register", refuse_forward)
    code, _, err = run(argv + ["--moving-labels", labels, "--fixed-labels", labels],
                       capsys)
    assert code == 2
    assert f"{labels}: label extents (8, 8, 8)" in err
    assert "(16, 16, 16)" in err and "Traceback" not in err


def test_register_out_of_memory_exit_3(trained, tmp_path, capsys, monkeypatch):
    _, _, out = trained
    argv, _ = register_argv(tmp_path, out)

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 992. MiB for an array")

    monkeypatch.setattr("symtrans.training.forward", exhausted)
    code, _, err = run(argv, capsys)
    assert code == 3
    assert err.strip() == "error: register: out of memory"
    assert "Traceback" not in err


def test_train_out_of_memory_on_the_backward_worker_exit_3(trained, tmp_path, capsys,
                                                            threaded_backward, monkeypatch):
    tmp, _, _ = trained
    failed_on_worker = []
    weight_grad = ops._weight_grad

    def exhausted(*args):
        if threading.current_thread() is threading.main_thread():
            return weight_grad(*args)
        failed_on_worker.append(args)
        raise MemoryError("Unable to allocate 64.0 MiB for an array")

    monkeypatch.setattr(ops, "_weight_grad", exhausted)
    code, _, err = run(["train", "--config", str(tmp / "train.json"),
                        "--out", str(tmp_path / "run")], capsys)
    assert code == 3
    assert err.strip() == "error: train: out of memory"
    assert "Traceback" not in err
    # the walk goes on past a failed job, so every later deferred dw ran too
    assert len(failed_on_worker) > 1


def test_register_out_of_memory_on_the_sampling_worker_exit_3(trained, tmp_path, capsys,
                                                              threaded_sample, monkeypatch):
    _, _, out = trained
    argv, _ = register_argv(tmp_path, out)
    failed_on_worker = []
    sample_slab = deformation._sample_slab

    def exhausted(*args):
        if threading.current_thread() is threading.main_thread():
            return sample_slab(*args)
        failed_on_worker.append(args)
        raise MemoryError("Unable to allocate 64.0 MiB for an array")

    monkeypatch.setattr(deformation, "_sample_slab", exhausted)
    code, _, err = run(argv + ["--mode", "diff"], capsys)
    assert code == 3
    assert err.strip() == "error: register: out of memory"
    assert "Traceback" not in err
    assert failed_on_worker


ENVIRONMENT = {"python": platform.python_version(), "numpy": np.__version__,
               "scipy": scipy.__version__}


def test_manifests_record_the_environment(trained, tmp_path, capsys):
    _, cfg, out = trained
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(cfg["data"]))
    manifests = []
    for name in ("a", "b"):
        code, _, _ = run(["gen-data", "--pairs", "1", "--out", str(tmp_path / name),
                          "--seed", "4", "--spec", str(spec_path)], capsys)
        assert code == 0
        manifests.append((tmp_path / name / "manifest.json").read_bytes())
    # the environment is the same for both, so same-seed manifests still agree
    assert manifests[0] == manifests[1]
    argv, _ = register_argv(tmp_path, out)
    field = tmp_path / "u.svol"
    code, _, _ = run(argv + ["--out-field", str(field)], capsys)
    assert code == 0
    for path in (tmp_path / "a" / "manifest.json", out / "manifest.json",
                 tmp_path / "u.svol.manifest.json"):
        assert json.loads(path.read_text())["environment"] == ENVIRONMENT, path


@pytest.mark.parametrize("kv_stride", [None, 1])
def test_register_refuses_version_2_checkpoint(trained, tmp_path, capsys, kv_stride):
    # version 2 predates the removal of ModelConfig.kv_stride; its config
    # blob may still carry the field
    tmp, cfg, out = trained
    blob = (out / "checkpoint_000002.symt").read_bytes()
    (blob_len,) = struct.unpack("<I", blob[8:12])
    config = json.loads(blob[12:12 + blob_len])
    if kv_stride is not None:
        config["kv_stride"] = kv_stride
    config_blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    old = tmp_path / "v2.symt"
    old.write_bytes(blob[:4] + struct.pack("<II", 2, len(config_blob))
                    + config_blob + blob[12 + blob_len:])
    vol = tmp_path / "vol.svol"
    write_svol(vol, np.zeros((1, 16, 16, 16), np.float32), KIND_IMAGE)
    code, _, err = run(["register", "--moving", str(vol), "--fixed", str(vol),
                        "--checkpoint", str(old)], capsys)
    assert code == 2
    assert "checkpoint version 2" in err
    assert "reads version 3" in err
    assert str(old) in err
    assert "Traceback" not in err


def test_register_defaults_to_the_checkpoint_mode(trained, tmp_path, capsys):
    _, _, out = trained
    blob = (out / "checkpoint_000002.symt").read_bytes()
    (blob_len,) = struct.unpack("<I", blob[8:12])
    config = json.loads(blob[12:12 + blob_len])
    config["mode"] = "diffeomorphic"
    config_blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    diffeo = tmp_path / "diffeo.symt"
    diffeo.write_bytes(blob[:8] + struct.pack("<I", len(config_blob))
                       + config_blob + blob[12 + blob_len:])
    rng = np.random.default_rng(4)
    vols = []
    for name in ("moving", "fixed"):
        vols.append(tmp_path / f"{name}.svol")
        write_svol(vols[-1], rng.random((1, 16, 16, 16)).astype(np.float32), KIND_IMAGE)
    fields = {}
    for flags in ([], ["--mode", "diff"], ["--mode", "disp"]):
        field = tmp_path / f"u{len(fields)}.svol"
        code, _, _ = run(["register", "--moving", str(vols[0]), "--fixed", str(vols[1]),
                          "--checkpoint", str(diffeo), "--out-field", str(field)]
                         + flags, capsys)
        assert code == 0
        manifest = json.loads((tmp_path / f"{field.name}.manifest.json").read_text())
        fields[tuple(flags)] = field.read_bytes(), manifest["config"]["mode"]
    assert fields[()] == fields[("--mode", "diff")]
    assert fields[()][1] == "diffeomorphic"
    # an explicit --mode still overrides the checkpoint
    assert fields[("--mode", "disp")][0] != fields[()][0]
    assert fields[("--mode", "disp")][1] == "displacement"


@pytest.mark.parametrize("argv,flag", [
    (["train", "--log", "0"], "--log"),
    (["gen-data", "--pairs", "-2"], "--pairs"),
    (["gen-data", "--pairs", "0", "--seed", "-1"], "--seed"),
    (["gen-data", "--pairs", "1", "--seed", "-1"], "--seed"),
], ids=["log", "pairs", "seed-no-pairs", "seed"])
def test_cli_count_below_its_minimum_exit_2(tmp_path, capsys, trained, argv, flag):
    tmp, _, _ = trained
    out = tmp_path / "o"
    argv = argv + ["--out", str(out)]
    if argv[0] == "train":
        argv += ["--config", str(tmp / "train.json")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "Traceback" not in err
    assert not out.exists()


def test_eval_identity_field(tmp_path, capsys):
    field = tmp_path / "id.svol"
    write_svol(field, np.zeros((3, 8, 8, 8), np.float32), KIND_DISPLACEMENT)
    labs = np.zeros((8, 8, 8), np.float32)
    labs[2:5, 2:5, 2:5] = 1
    lpath = tmp_path / "l.svol"
    write_svol(lpath, labs, KIND_LABELS)
    code, stdout, _ = run(["eval", "--field", str(field),
                           "--moving-labels", str(lpath),
                           "--fixed-labels", str(lpath)], capsys)
    assert code == 0
    metrics = json.loads(stdout.strip().splitlines()[-1])
    assert metrics["dsc_mean"] == 1.0
    assert metrics["folding_count"] == 0


def test_eval_affine_expansion_det(tmp_path, capsys):
    shape = (8, 8, 8)
    u = 0.5 * np.indices(shape).astype(np.float32)
    field = tmp_path / "exp.svol"
    write_svol(field, u, KIND_DISPLACEMENT)
    code, stdout, _ = run(["eval", "--field", str(field)], capsys)
    assert code == 0
    metrics = json.loads(stdout.strip().splitlines()[-1])
    assert metrics["det_interior_mean"] == pytest.approx(3.375, abs=1e-5)


def test_eval_malformed_field_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.svol"
    bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNK")
    code, _, err = run(["eval", "--field", str(bad)], capsys)
    assert code == 2
    assert "magic" in err


def test_eval_missing_field_exit_3(tmp_path, capsys):
    code, _, _ = run(["eval", "--field", str(tmp_path / "nope.svol")], capsys)
    assert code == 3


def test_count_compare_msa(capsys):
    code, stdout, _ = run(["count", "--compare-msa", "--json"], capsys)
    assert code == 0
    report = json.loads(stdout.strip().splitlines()[-1])
    assert report["total_params"] == sum(report["per_module_params"].values())
    assert len(report["msa_comparison"]) == 3
    for stage in report["msa_comparison"]:
        assert stage["gconv_weight_params"] * stage["dim"] == \
            stage["gconv_weight_params_dense"]


def test_count_compare_msa_follows_ffn_expansion(tmp_path, capsys):
    # the MSA block compared against must use the config's expansion too
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"ffn_expansion": 2}))
    code, stdout, _ = run(["count", "--config", str(cfg), "--compare-msa", "--json"],
                          capsys)
    assert code == 0
    stages = json.loads(stdout.strip().splitlines()[-1])["msa_comparison"]
    # 4*(8*8+8) + (8*16+16) + (16*8+8) + 4*8 at dim 8, expansion 2
    assert stages[0]["msa_params"] == 600
    for stage in stages:
        d = stage["dim"]
        assert stage["msa_params"] == 4 * (d * d + d) + (4 * d * d + 3 * d) + 4 * d


def test_count_placements_differ(capsys):
    totals = {}
    for placement in ("symmetric", "bottom_only"):
        code, stdout, _ = run(["count", "--placement", placement, "--json"],
                              capsys)
        assert code == 0
        totals[placement] = json.loads(stdout.strip().splitlines()[-1])["total_params"]
    assert totals["symmetric"] != totals["bottom_only"]


def test_verify_diffeo_suite_via_cli(capsys):
    code, stdout, _ = run(["verify", "--suite", "diffeo"], capsys)
    assert code == 0
    assert "PASS diffeo.zero_velocity" in stdout
    summary = json.loads(stdout.strip().splitlines()[-1])
    assert summary["failed"] == 0


def train_config(tmp, trained, **overrides):
    _, cfg, _ = trained
    path = tmp / "train.json"
    path.write_text(json.dumps(dict(cfg, **overrides)))
    return str(path)


def test_train_non_finite_gradient_exit_4_names_it(trained, tmp_path, capsys,
                                                   monkeypatch):
    forward, forwards = training.forward, []

    def poisoned(moving, fixed, params, cfg):
        # from step 1 on, a finite loss hands enc1's patch embedding a NaN
        forwards.append(None)
        raw = forward(moving, fixed, params, cfg)
        if len(forwards) < 2:
            return raw
        weight = params.enc[0].embed.weight
        return T.make_op((raw, weight), raw.data,
                         lambda g: (g, np.full(weight.shape, np.nan, weight.dtype)))

    monkeypatch.setattr(training, "forward", poisoned)
    out = tmp_path / "run"
    code, _, err = run(["train", "--config",
                        train_config(tmp_path, trained, iterations=4, checkpoint_every=1),
                        "--out", str(out)], capsys)
    assert code == 4
    assert "iteration 1: gradient of enc1.embed.weight is not finite" in err
    assert "Traceback" not in err
    # the step the gradient appeared in stopped before Adam read it
    assert len(forwards) == 2
    assert sorted(p.name for p in out.glob("*.symt")) == [
        "checkpoint_000000.symt", "checkpoint_000001.symt"]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_train_non_finite_parameter_exit_4_names_it(trained, tmp_path, capsys):
    # a learning rate no float32 update survives: the first Adam step
    # overflows, and the step stops before a checkpoint holds the result
    _, _, out = trained
    first = next(iter(load_checkpoint(out / "checkpoint_000002.symt")[1].tensors))
    run_dir = tmp_path / "run"
    code, _, err = run(["train", "--config",
                        train_config(tmp_path, trained, lr=1e300, checkpoint_every=1),
                        "--out", str(run_dir)], capsys)
    assert code == 4
    assert f"iteration 0: parameter {first} is not finite" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in run_dir.glob("*.symt")) == ["checkpoint_000000.symt"]
