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
blob, is pinned beside the file, and so is the step-4 Adam section that
follows them: Adam's step, record count and moments. A change to the
checkpoint format or to the config's fields alone moves the file digest and
leaves the payload and Adam digests; a change that moves a trained parameter
moves the file digest and the others with it.

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

from conftest import checkpoint_sections

PINNED_ENV = {
    "numpy": "2.4.6",
    "scipy": "1.17.1",
    "blas": "scipy-openblas 0.3.31.188.0",
    "machine": "x86_64",
    "cpu": "Intel(R) Xeon(R) Processor",
    "simd": ["AVX512_ICL", "AVX512_SPR", "X86_V3", "X86_V4"],
}

# sha256[:16] of each checkpoint file, of its payload under its name plus
# PAYLOAD, and of its Adam section, without the CRC32 trailer, under its name
# plus ADAM
PAYLOAD = " payload"
ADAM = " adam"
DIGESTS = {
    "displacement": {
        "checkpoint_000000.symt": "e686df7fea17f244",
        "checkpoint_000000.symt payload": "068f3dace34a3552",
        "checkpoint_000004.symt": "cba7b67f41963a48",
        "checkpoint_000004.symt payload": "7c84fd1c97a79484",
        "checkpoint_000004.symt adam": "d786da6060acb513",
    },
    "diffeomorphic": {
        "checkpoint_000000.symt": "34ac71066e238310",
        "checkpoint_000000.symt payload": "068f3dace34a3552",
        "checkpoint_000004.symt": "8decafab6d7f0c6a",
        "checkpoint_000004.symt payload": "51d2062c740f71f5",
        "checkpoint_000004.symt adam": "ac08aff23f0929a8",
    },
}

# the same for checkpoint_000004.symt of each ablation placement's
# displacement desk run
PLACEMENT_DIGESTS = {
    "encoder_only": {"checkpoint_000004.symt": "bb94f156a908eed5",
                     "checkpoint_000004.symt payload": "331621cdb261e5b2"},
    "bottom_only": {"checkpoint_000004.symt": "de7881b6dc0b58d0",
                    "checkpoint_000004.symt payload": "e23a706691735bf7"},
    "decoder_only": {"checkpoint_000004.symt": "64dc313b65552903",
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
    """The digest of each file ``pinned`` names, or of its payload (the
    parameter records), or of its Adam section up to the CRC32 trailer."""
    got = {}
    for name in pinned:
        path = out_dir / name.removesuffix(PAYLOAD).removesuffix(ADAM)
        data = path.read_bytes()
        if name != path.name:
            params, adam = checkpoint_sections(path)
            data = data[params:adam] if name.endswith(PAYLOAD) else data[adam:-4]
        got[name] = sha16(data)
    return got


def check_digests(run, got, pinned):
    """Fail, naming everything of ``pinned`` whose digest in ``got`` moved,
    and which kind of pin it was. When only ``.symt`` file digests moved and
    every payload pin held, the checkpoint format or the config blob changed,
    whatever the environment. When a payload, Adam or ``register`` digest
    moved, a training byte moved, which on an environment other than the
    pinned one is an xfail."""
    moved = [name for name, digest in pinned.items() if got[name] != digest]
    if not moved:
        return
    message = f"{run} moved " + "; ".join(f"{name}: {got[name]}, pinned {pinned[name]}"
                                          for name in moved)
    if all(name.endswith(".symt") for name in moved):
        pytest.fail(message + ". Only .symt file digests moved and every payload and "
                    "Adam pin held, so the checkpoint format or the config blob changed")
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
    ("checkpoint_000004.symt adam", "so a training byte moved"),
])
def test_check_digests_says_which_kind_of_pin_moved(doctored, says, monkeypatch):
    monkeypatch.setitem(globals(), "environment", lambda: dict(PINNED_ENV))
    pinned = DIGESTS["displacement"]
    got = dict(pinned, **{doctored: "0" * 16})
    with pytest.raises(pytest.fail.Exception, match=says) as failure:
        check_digests("doctored run", got, pinned)
    assert f"{doctored}: {'0' * 16}" in str(failure.value)
