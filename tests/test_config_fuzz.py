"""Config JSON fuzzed through the command line with hypothesis.

Any JSON value in any field of ``TrainConfig``, ``ModelConfig``,
``SyntheticSpec`` or ``LossConfig`` either gives a working config (exit 0) or is refused with
exit 2 and a message that names the config file; it never ends in a
traceback. A train config runs no iteration, so ``gen-data`` fuzzes the
generator spec through a pair it generates.
"""

import contextlib
import dataclasses
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symtrans.cli import main
from symtrans.losses import LossConfig
from symtrans.model import ModelConfig
from symtrans.training import SyntheticSpec, TrainConfig

FUZZ = settings(max_examples=60, deadline=None)

JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=8,
)

# the smallest model the command line trains; iterations 0 writes the step-0
# checkpoint and stops. JSON draws hold no integers, so no draw can set a
# positive iteration count or a large model.
TINY_MODEL = {"input_shape": [16, 16, 16], "base_dim": 8,
              "encoder_depths": [1, 1, 1], "decoder_depths": [1, 1, 1]}
TINY_TRAIN = {"iterations": 0, "model": TINY_MODEL, "data": {"extents": [16, 16, 16]}}

SECTIONS = {None: TrainConfig, "model": ModelConfig, "data": SyntheticSpec,
            "loss": LossConfig}


def names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def check(code, err, path):
    assert code in (0, 2), err
    if code == 2:
        assert str(path) in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


@FUZZ
@given(overrides=st.dictionaries(st.sampled_from(names(ModelConfig)), JSON,
                                 min_size=1, max_size=3))
def test_count_config_exits_0_or_2(workdir, overrides):
    path = workdir / "model.json"
    path.write_text(json.dumps(overrides))
    check(*run(["count", "--config", str(path), "--json"]), path)


@FUZZ
@given(data=st.data())
def test_train_config_exits_0_or_2(workdir, data):
    cfg = json.loads(json.dumps(TINY_TRAIN))
    for _ in range(data.draw(st.integers(1, 3))):
        section = data.draw(st.sampled_from(list(SECTIONS)))
        name = data.draw(st.sampled_from(names(SECTIONS[section])))
        value = data.draw(JSON)
        target = cfg if section is None else cfg.setdefault(section, {})
        if isinstance(target, dict):
            target[name] = value
    path = workdir / "train.json"
    path.write_text(json.dumps(cfg))
    check(*run(["train", "--config", str(path), "--out", str(workdir / "run")]), path)


# one 16^3 pair per example: what the spec's validation lets through must
# generate a pair, or fold on every draw and be refused by name
TINY_SPEC = {"extents": [16, 16, 16]}


@FUZZ
@example(overrides={"warp_sigma": 1e308})
@example(overrides={"warp_sigma": 1e9})
@example(overrides={"warp_sigma": -1.0})
@example(overrides={"radius_range": [0.0, 1e308]})
@example(overrides={"radius_range": [7.0, -3.0]})
@example(overrides={"radius_range": [-5.0, -1.0]})
@example(overrides={"translation_max": 1e308})
@example(overrides={"translation_max": -2.0})
@example(overrides={"warp_amplitude": 1e308})
@given(overrides=st.dictionaries(st.sampled_from(names(SyntheticSpec)), JSON,
                                 min_size=1, max_size=3))
def test_gen_data_spec_exits_0_or_2(workdir, overrides):
    path = workdir / "spec.json"
    path.write_text(json.dumps(dict(TINY_SPEC, **overrides)))
    check(*run(["gen-data", "--spec", str(path), "--pairs", "1",
                "--out", str(workdir / "data")]), path)
