import argparse
import ast
import json
import platform
import re
import struct
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest
import scipy

from symtrans import cli, deformation, ops, training, verify
from symtrans import tensor as T
from symtrans.cli import build_parser, main
from symtrans.model import load_checkpoint
from symtrans.svol import (
    KIND_DISPLACEMENT,
    KIND_IMAGE,
    KIND_LABELS,
    KIND_VELOCITY,
    SvolError,
    read_svol,
    write_svol,
)

from conftest import checkpoint_sections


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def with_config(blob, config_blob):
    """SYMT file ``blob`` with its config blob replaced and its CRC32 trailer
    computed again."""
    (blob_len,) = struct.unpack("<I", blob[8:12])
    body = blob[:8] + struct.pack("<I", len(config_blob)) + config_blob + blob[12 + blob_len:-4]
    return body + struct.pack("<I", zlib.crc32(body))


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


def test_svol_empty_extent_refused(tmp_path, capsys):
    # hand-built with a valid trailer, since write_svol refuses to write them
    for shape in ((3, 4, 0, 4), (0, 4, 4, 4)):
        header = b"SVOL" + struct.pack("<IBI3I", 2, KIND_VELOCITY, *shape)
        field = tmp_path / "v.svol"
        field.write_bytes(header + struct.pack("<I", zlib.crc32(header)))
        named = f"{field}: channels and extents {shape}"
        with pytest.raises(SvolError, match=re.escape(named)):
            read_svol(field)
        code, _, err = run(["eval", "--field", str(field)], capsys)
        assert code == 2
        assert named in err and "Traceback" not in err
        out = tmp_path / "out.svol"
        with pytest.raises(SvolError, match=re.escape(f"{out}: SVOL payload {shape}")):
            write_svol(out, np.zeros(shape, np.float32), KIND_VELOCITY)
        assert not out.exists()


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


# an in-bounds spec whose warp folds on all 6 draws (pair_rng seeds 0-19)
FOLDING_SPEC = {"extents": [16, 16, 16], "warp_amplitude": 16.0, "warp_sigma": 0.5,
                "radius_range": [2.5, 4.0]}


def test_gen_data_unsatisfiable_warp_exit_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(FOLDING_SPEC))
    code, _, err = run(["gen-data", "--spec", str(spec_path), "--pairs", "1",
                        "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert str(spec_path) in err and "warp_amplitude" in err and "6 draws" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("override,field", [
    ({"warp_sigma": 1e308}, "warp_sigma"),
    ({"warp_sigma": 1e9}, "warp_sigma"),
    ({"warp_sigma": -1.0}, "warp_sigma"),
    ({"radius_range": [0, 1e308]}, "radius_range"),
    ({"radius_range": [7, -3]}, "radius_range"),
    ({"radius_range": [-5, -1]}, "radius_range"),
    ({"translation_max": 1e308}, "translation_max"),
    ({"translation_max": -2.0}, "translation_max"),
    ({"warp_amplitude": 1e308}, "warp_amplitude"),
    ({"extents": [2, 16, 16]}, "extents[0]"),
])
def test_gen_data_out_of_range_spec_exit_2_names_the_field(tmp_path, capsys, override,
                                                           field):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict({"extents": [16, 16, 16]}, **override)))
    code, _, err = run(["gen-data", "--spec", str(spec_path), "--pairs", "1",
                        "--out", str(tmp_path / "x")], capsys)
    assert code == 2, err
    assert str(spec_path) in err and field in err
    assert "Traceback" not in err


def test_train_unsatisfiable_warp_exit_2(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({
        "iterations": 2,
        "model": {"input_shape": [16, 16, 16], "base_dim": 8,
                  "encoder_depths": [1, 1, 1], "decoder_depths": [1, 1, 1]},
        "data": FOLDING_SPEC,
    }))
    # inline, then in the pair producer, which two iterations make it fork
    for fork in (False, True):
        monkeypatch.setattr(training, "_FORK_PRODUCER", fork)
        code, _, err = run(["train", "--config", str(cfg_path),
                            "--out", str(tmp_path / f"run{fork:d}")], capsys)
        assert code == 2
        assert "warp_amplitude" in err and "6 draws" in err
        # the message names the config file and its data section
        assert f"train config {cfg_path}, section data: no fold-free field" in err
        assert "Traceback" not in err


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
    # one file per checkpoint, which holds Adam's state too
    assert sorted(p.name for p in out.iterdir()) == [
        "checkpoint_000000.symt", "checkpoint_000002.symt", "loss.csv", "manifest.json"]
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


@pytest.mark.parametrize("section,field", [
    (None, "beta1"), (None, "eps"), ("data", "max_retries"),
])
def test_train_config_removed_knob_exit_2(tmp_path, capsys, section, field):
    # Adam's beta1 and eps and the generator's draw count are constants now
    cfg = {"iterations": 0, "model": {"input_shape": [16, 16, 16]},
           "data": {"extents": [16, 16, 16]}}
    (cfg[section] if section else cfg)[field] = 1
    cfg_path = tmp_path / "t.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run(["train", "--config", str(cfg_path),
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert str(cfg_path) in err and "unknown field" in err
    assert (f"{section}.{field}" if section else field) in err


def test_register_has_no_lambda_reg_option(trained, tmp_path, capsys):
    _, _, out = trained
    argv, _ = register_argv(tmp_path, out)
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--lambda-reg", "0.5"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --lambda-reg" in capsys.readouterr().err
    # the objective is the default one, so the manifest records the mode only
    field = tmp_path / "u.svol"
    assert run(argv + ["--out-field", str(field)], capsys)[0] == 0
    manifest = json.loads((tmp_path / "u.svol.manifest.json").read_text())
    assert manifest["config"] == {"mode": "displacement"}


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


def test_register_negative_labels_exit_2_names_the_file(trained, tmp_path, capsys,
                                                       monkeypatch):
    _, _, out = trained
    argv, labels = register_argv(tmp_path, out)
    bad = tmp_path / "negative.svol"
    write_svol(bad, np.full((16, 16, 16), -3.0, np.float32), KIND_LABELS)
    monkeypatch.setattr("symtrans.cli.register", refuse_forward)
    code, _, err = run(argv + ["--moving-labels", labels, "--fixed-labels", str(bad)],
                       capsys)
    assert code == 2
    assert f"{bad}: labels must be non-negative whole numbers" in err and "found -3" in err
    assert "Traceback" not in err


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
    # versions 1 to 4 are refused by number. Version 4 had no Adam section and
    # no CRC32 trailer. Version 3 predates the removal of ModelConfig's
    # patch_kernel, ffn_expansion and leaky_slope, and versions 1 and 2 that
    # of kv_stride too; with kv_stride set, each blob carries the fields its
    # version had
    tmp, cfg, out = trained
    blob = (out / "checkpoint_000002.symt").read_bytes()
    (blob_len,) = struct.unpack("<I", blob[8:12])
    config = json.loads(blob[12:12 + blob_len])
    removed = {3: dict(patch_kernel=3, ffn_expansion=4, leaky_slope=0.2),
               2: dict(kv_stride=kv_stride)}
    vol = tmp_path / "vol.svol"
    write_svol(vol, np.zeros((1, 16, 16, 16), np.float32), KIND_IMAGE)
    for version in (4, 3, 2, 1):
        if kv_stride is not None:
            config.update(removed.get(version, {}))
        config_blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
        old = tmp_path / f"v{version}.symt"
        old.write_bytes(blob[:4] + struct.pack("<II", version, len(config_blob))
                        + config_blob + blob[12 + blob_len:])
        code, _, err = run(["register", "--moving", str(vol), "--fixed", str(vol),
                            "--checkpoint", str(old)], capsys)
        assert code == 2
        assert f"checkpoint version {version}" in err
        assert "reads version 5" in err
        assert str(old) in err
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["register", "train"])
def test_checkpoint_with_a_deeply_nested_config_exit_2(trained, tmp_path, capsys, command):
    # deeper than the JSON parser recurses
    _, _, out = trained
    bad = tmp_path / "nested.symt"
    bad.write_bytes(with_config((out / "checkpoint_000002.symt").read_bytes(),
                                b"[" * 200_000))
    if command == "register":
        argv, _ = register_argv(tmp_path, out)
        argv[-1] = str(bad)
    else:
        argv = ["train", "--config", train_config(tmp_path, trained, iterations=4),
                "--out", str(tmp_path / "run"), "--resume", str(bad.with_suffix(""))]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert f"{bad}: bad model config: maximum recursion depth exceeded" in err
    assert "Traceback" not in err


def test_resume_with_another_model_config_exit_2_names_each_field(trained, tmp_path,
                                                                   capsys):
    _, cfg, out = trained
    model = dict(cfg["model"], base_dim=16, mode="diffeomorphic")
    code, _, err = run(["train", "--config", train_config(tmp_path, trained, model=model),
                        "--out", str(tmp_path / "run"),
                        "--resume", str(out / "checkpoint_000002")], capsys)
    assert code == 2
    assert (f"{out / 'checkpoint_000002.symt'}: model config differs from the train "
            f"config's: base_dim 8 in the checkpoint, 16 in the config; mode "
            f"'displacement' in the checkpoint, 'diffeomorphic' in the config") in err
    assert "Traceback" not in err


def test_register_defaults_to_the_checkpoint_mode(trained, tmp_path, capsys):
    _, _, out = trained
    blob = (out / "checkpoint_000002.symt").read_bytes()
    (blob_len,) = struct.unpack("<I", blob[8:12])
    config = json.loads(blob[12:12 + blob_len])
    config["mode"] = "diffeomorphic"
    config_blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    diffeo = tmp_path / "diffeo.symt"
    diffeo.write_bytes(with_config(blob, config_blob))
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


def blob_labels():
    labels = np.zeros((1, 8, 8, 8), np.float32)
    labels[0, 2:5, 2:5, 2:5] = 1
    return labels


def with_voxel(labels, value):
    labels[0, 3, 3, 3] = value
    return labels


@pytest.mark.parametrize("labels, refusal", [
    (with_voxel(blob_labels(), 1.4), "labels must be non-negative whole numbers, found 1.4"),
    (np.concatenate([blob_labels(), np.full((1, 8, 8, 8), 7.0, np.float32)]),
     "labels volumes need 1 channel, found 2"),
    (np.full((1, 8, 8, 8), -3.0, np.float32), "found -3"),
], ids=["fraction", "two_channels", "negative"])
def test_eval_malformed_labels_exit_2_names_the_file(tmp_path, capsys, labels, refusal):
    field = tmp_path / "id.svol"
    write_svol(field, np.zeros((3, 8, 8, 8), np.float32), KIND_DISPLACEMENT)
    good = tmp_path / "good.svol"
    write_svol(good, blob_labels(), KIND_LABELS)
    bad = tmp_path / "bad.svol"
    write_svol(bad, labels, KIND_LABELS)
    code, stdout, err = run(["eval", "--field", str(field), "--moving-labels", str(bad),
                             "--fixed-labels", str(good)], capsys)
    assert code == 2 and stdout == ""
    assert f"{bad}: " in err and refusal in err and "Traceback" not in err


def test_eval_field_too_thin_for_differences_exit_2_names_it(tmp_path, capsys):
    field = tmp_path / "thin.svol"
    write_svol(field, np.zeros((3, 2, 16, 16), np.float32), KIND_DISPLACEMENT)
    code, stdout, err = run(["eval", "--field", str(field)], capsys)
    assert code == 2 and stdout == ""
    assert f"{field}: extents (2, 16, 16) too small for differences" in err
    assert "Traceback" not in err


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


def test_verify_suite_choices_are_the_suites():
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    (suite,) = [action for action in commands.choices["verify"]._actions
                if action.dest == "suite"]
    assert list(suite.choices) == [*verify.SUITES, "all"]
    # the suites import their checks' modules and scipy.ndimage only when run
    top_level = [node.module for node in ast.parse(Path(cli.__file__).read_text()).body
                 if isinstance(node, ast.ImportFrom)]
    assert "verify" not in top_level


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
    first = next(iter(load_checkpoint(out / "checkpoint_000002.symt")[1]))
    run_dir = tmp_path / "run"
    code, _, err = run(["train", "--config",
                        train_config(tmp_path, trained, lr=1e300, checkpoint_every=1),
                        "--out", str(run_dir)], capsys)
    assert code == 4
    assert f"iteration 0: parameter {first} is not finite" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in run_dir.glob("*.symt")) == ["checkpoint_000000.symt"]


def first_value_offset(path, moment):
    """Offset of the first float of the first parameter in SYMT file
    ``path``, or with ``moment`` of that parameter's second moment, in the
    first record of the Adam section after its step and record count."""
    blob = path.read_bytes()
    params, adam = checkpoint_sections(path)
    pos = adam + 12 if moment else params
    pos += 4 + struct.unpack_from("<I", blob, pos)[0]  # the name
    for tensor in range(2 if moment else 1):
        (rank,) = struct.unpack_from("<I", blob, pos)
        extents = struct.unpack_from(f"<{rank}I", blob, pos + 4)
        pos += 4 + 4 * rank
        if tensor == 0 and moment:
            pos += 4 * int(np.prod(extents))
    return pos


@pytest.mark.parametrize("command,suffix,tensor", [
    ("register", ".symt", "parameter 'stem.conv0.weight' data"),
    ("train", ".symt", "parameter 'stem.conv0.weight' data"),
    pytest.param("train", ".symt", "'stem.conv0.weight' v data",
                 id="train-.symt-adam-'stem.conv0.weight' v data"),
])
def test_non_finite_checkpoint_tensor_exit_2_names_it(trained, tmp_path, capsys,
                                                      command, suffix, tensor):
    # a copy of the step-2 checkpoint with one inf written into a parameter
    # or a second moment
    _, _, out = trained
    stem = tmp_path / "bad"
    path = out / f"checkpoint_000002{suffix}"
    blob = bytearray(path.read_bytes())
    struct.pack_into("<f", blob, first_value_offset(path, " v " in tensor), np.inf)
    stem.with_suffix(suffix).write_bytes(bytes(blob))
    if command == "register":
        argv, _ = register_argv(tmp_path, out)
        argv[-1] = str(stem.with_suffix(".symt"))
    else:
        argv = ["train", "--config", train_config(tmp_path, trained, iterations=4),
                "--out", str(tmp_path / "run"), "--resume", str(stem)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert f"{stem.with_suffix(suffix)}: {tensor} holds non-finite values (1 of " in err
    assert "Traceback" not in err
