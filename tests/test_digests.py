"""Byte identity of same-seed training, pinned as file digests.

The 4-iteration 32^3 desk runs (seed 42, lr 5e-3, beta2 0.99) write the same
step-0 and step-4 files in both modes, whether the pairs come from the forked
producer and conv3d's backward has its worker, or everything runs inline on
one thread. The ablation placements' displacement runs, which take other
backward paths through conv3d's deferred weight gradients, write the same
step-4 weights with the producer and the worker. A 64^3 diffeomorphic
``register`` of the desk model, whose forward samples on the worker when
there is one, writes the same field and warped volume either way. A change
that moves a training or registration byte on purpose updates the digests in
the same diff and says why.

Each pinned ``.symt`` file's payload, the parameter records after its config
blob, is pinned beside the file. A change to the checkpoint format or to the
config's fields alone moves the file digest and leaves the payload digest;
a change that moves a trained parameter moves both.

The digests hold for the environment in PINNED_ENV. Float32 sums can round
differently with another numpy, BLAS or set of SIMD extensions, so on an
environment that differs a mismatch is reported as an expected failure that
names the differing fields; on the pinned environment it fails.
"""

import hashlib
import importlib.util
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from symtrans import training
from symtrans.model import ModelConfig, init_model_params
from symtrans.training import (SyntheticSpec, TrainConfig, generate_pair, pair_rng,
                               register, train)

PINNED_ENV = {
    "numpy": "2.4.6",
    "scipy": "1.17.1",
    "blas": "scipy-openblas 0.3.31.188.0",
    "machine": "x86_64",
    "cpu": "Intel(R) Xeon(R) Processor",
    "simd": ["AVX512_ICL", "AVX512_SPR", "X86_V3", "X86_V4"],
}

# sha256[:16] of each checkpoint file, and of a .symt file's payload under
# its name plus PAYLOAD
PAYLOAD = " payload"
DIGESTS = {
    "displacement": {
        "checkpoint_000000.symt": "5683036a86796552",
        "checkpoint_000000.symt payload": "068f3dace34a3552",
        "checkpoint_000000.opt": "5d2c10a1510dc871",
        "checkpoint_000004.symt": "ab5bc78e511778e9",
        "checkpoint_000004.symt payload": "7c84fd1c97a79484",
        "checkpoint_000004.opt": "8ed985759d40b1bb",
    },
    "diffeomorphic": {
        "checkpoint_000000.symt": "ef21c4ce3a2b4537",
        "checkpoint_000000.symt payload": "068f3dace34a3552",
        "checkpoint_000000.opt": "5d2c10a1510dc871",
        "checkpoint_000004.symt": "4a1d9065b6d23b18",
        "checkpoint_000004.symt payload": "51d2062c740f71f5",
        "checkpoint_000004.opt": "b75e191b22dbe0e6",
    },
}

# the same for checkpoint_000004.symt of each ablation placement's
# displacement desk run
PLACEMENT_DIGESTS = {
    "encoder_only": {"checkpoint_000004.symt": "5ba17e502bdfc1bf",
                     "checkpoint_000004.symt payload": "331621cdb261e5b2"},
    "bottom_only": {"checkpoint_000004.symt": "fc46e577ba2a2d52",
                    "checkpoint_000004.symt payload": "e23a706691735bf7"},
    "decoder_only": {"checkpoint_000004.symt": "eb0c0dbc35216abd",
                     "checkpoint_000004.symt payload": "c5370c76b9142c88"},
}

# sha256[:16] of the field and warped arrays of the 64^3 diffeomorphic
# register of the desk model (init seed 3, pair pair_rng(3, 0))
REGISTER_DIGESTS = {"field": "b2b53df93db231f6", "warped": "5e04c9a68bb125d4"}

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def environment() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "cpu": run.cpu_model(),
        "simd": sorted(config["SIMD Extensions"]["found"]),
    }


def desk_model(mode, placement="symmetric", extent=32) -> ModelConfig:
    return ModelConfig(input_shape=(extent,) * 3, base_dim=8, encoder_depths=(1, 1, 1),
                       decoder_depths=(1, 1, 1), mode=mode, placement=placement)


def desk_config(mode, placement="symmetric") -> TrainConfig:
    return TrainConfig(lr=5e-3, beta2=0.99, iterations=4, seed=42, checkpoint_every=1000,
                       model=desk_model(mode, placement), data=SyntheticSpec())


@pytest.mark.parametrize("path", ["forked_training", "inline_training"])
@pytest.mark.parametrize("mode", ["displacement", "diffeomorphic"])
def test_desk_run_digests(mode, path, request, tmp_path, monkeypatch):
    request.getfixturevalue(path)
    generated_here = []
    generate_pair = training.generate_pair

    def counted(spec, rng):
        generated_here.append(rng)
        return generate_pair(spec, rng)

    # a forked producer inherits the wrapper, but appends to its own copy
    monkeypatch.setattr(training, "generate_pair", counted)
    train(desk_config(mode), out_dir=tmp_path)
    assert len(generated_here) == (0 if path == "forked_training" else 4)

    check_digests(f"{mode} desk run ({path})", file_digests(tmp_path, DIGESTS[mode]),
                  DIGESTS[mode])


@pytest.mark.parametrize("placement", sorted(PLACEMENT_DIGESTS))
def test_placement_desk_run_digests(placement, forked_training, tmp_path):
    train(desk_config("displacement", placement), out_dir=tmp_path)
    pinned = PLACEMENT_DIGESTS[placement]
    check_digests(f"{placement} desk run", file_digests(tmp_path, pinned), pinned)


@pytest.mark.parametrize("path", ["forked_training", "inline_training"])
def test_register_64_digests(path, request):
    request.getfixturevalue(path)
    cfg = desk_model("diffeomorphic", extent=64)
    _, params = init_model_params(cfg, np.random.default_rng(3))
    moving, fixed, *_ = generate_pair(SyntheticSpec(extents=cfg.input_shape), pair_rng(3, 0))
    field, warped, _ = register(moving, fixed, params, cfg)
    check_digests(f"64^3 register ({path})",
                  {"field": sha16(field.tobytes()), "warped": sha16(warped.tobytes())},
                  REGISTER_DIGESTS)


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def file_digests(out_dir, pinned):
    """The digest of each file ``pinned`` names, or of its payload: the bytes
    after the magic, version, config length and config blob."""
    got = {}
    for name in pinned:
        data = (out_dir / name.removesuffix(PAYLOAD)).read_bytes()
        if name.endswith(PAYLOAD):
            data = data[12 + int.from_bytes(data[8:12], "little"):]
        got[name] = sha16(data)
    return got


def check_digests(run, got, pinned):
    """Fail, naming everything of ``pinned`` whose digest in ``got`` moved,
    and which kind of pin it was. When only ``.symt`` file digests moved and
    every payload pin held, the checkpoint format or the config blob changed,
    whatever the environment. When a payload, ``.opt`` or ``register`` digest
    moved, a training byte moved, which on an environment other than the
    pinned one is an xfail."""
    moved = [name for name, digest in pinned.items() if got[name] != digest]
    if not moved:
        return
    message = f"{run} moved " + "; ".join(f"{name}: {got[name]}, pinned {pinned[name]}"
                                          for name in moved)
    if all(name.endswith(".symt") for name in moved):
        pytest.fail(message + ". Only .symt file digests moved and every payload pin "
                    "held, so the checkpoint format or the config blob changed")
    here = environment()
    differs = [f"{key}: {here[key]!r}, pinned {PINNED_ENV[key]!r}"
               for key in PINNED_ENV if here[key] != PINNED_ENV[key]]
    if differs:
        pytest.xfail(message + ". The environment differs from the pinned one in "
                     + "; ".join(differs))
    pytest.fail(message + ". The environment is the pinned one, so a training byte moved")


@pytest.mark.parametrize("doctored,says", [
    ("checkpoint_000004.symt", "the checkpoint format or the config blob changed"),
    ("checkpoint_000004.symt payload", "so a training byte moved"),
    ("checkpoint_000004.opt", "so a training byte moved"),
])
def test_check_digests_says_which_kind_of_pin_moved(doctored, says, monkeypatch):
    monkeypatch.setitem(globals(), "environment", lambda: dict(PINNED_ENV))
    pinned = DIGESTS["displacement"]
    got = dict(pinned, **{doctored: "0" * 16})
    with pytest.raises(pytest.fail.Exception, match=says) as failure:
        check_digests("doctored run", got, pinned)
    assert f"{doctored}: {'0' * 16}" in str(failure.value)
