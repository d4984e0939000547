"""Malformed SVOL, SYMT and SYMO files, fuzzed with hypothesis.

Every truncation and every extension of a valid file is refused, and a file
with one byte changed either loads or is refused. Refused means the format's
own ``ValueError`` subclass with the file's path in the message: never
``struct.error``, ``MemoryError`` or ``IndexError``, and never a traceback out
of the command line. And a write that fails part-way leaves the file it was
replacing as it was.
"""

import json
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtrans import binio
from symtrans.cli import main
from symtrans.model import (
    CheckpointError,
    ModelConfig,
    init_model_params,
    load_checkpoint,
    save_checkpoint,
)
from symtrans.svol import KIND_IMAGE, SvolError, read_svol, write_svol
from symtrans.training import OptStateError, init_adam, load_opt_state, save_opt_state

MODEL = ModelConfig(input_shape=(16, 16, 16), base_dim=8,
                    encoder_depths=(1, 1, 1), decoder_depths=(1, 1, 1))

# format -> (file name, reader, error class)
FORMATS = {
    "svol": ("vol.svol", read_svol, SvolError),
    "symt": ("model.symt", load_checkpoint, CheckpointError),
    "symo": ("model.opt", load_opt_state, OptStateError),
}

FUZZ = settings(max_examples=40, deadline=None)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("formats")
    rng = np.random.default_rng(0)
    write_svol(d / "vol.svol", rng.random((1, 4, 4, 4)).astype(np.float32), KIND_IMAGE)
    bag, _ = init_model_params(MODEL, rng)
    save_checkpoint(d / "model.symt", MODEL, bag)
    # as training writes at step 0: all-zero moments, so a rank flipped
    # upward reads zero extents from the payload that follows
    save_opt_state(d / "model.opt", init_adam(bag))
    return d


def _name(blob, pos, fields):
    (n,) = struct.unpack_from("<I", blob, pos)
    fields.extend(range(pos, pos + 4 + n))
    return pos + 4 + n


def _tensor(blob, pos, fields):
    (rank,) = struct.unpack_from("<I", blob, pos)
    extents = struct.unpack_from(f"<{rank}I", blob, pos + 4)
    fields.extend(range(pos, pos + 4 + 4 * rank))
    return pos + 4 + 4 * rank + 4 * math.prod(extents)


def header_offsets(fmt, blob):
    """Offsets of every byte outside the float payloads: the fields a reader
    sizes its reads by. A uniform draw would land almost only in payloads."""
    if fmt == "svol":
        return list(range(25))
    if fmt == "symt":  # magic, version, config blob; then name + tensor each
        pos, tensors = 12 + struct.unpack_from("<I", blob, 8)[0], 1
    else:  # magic, version, step, count; then name + two moments each
        pos, tensors = 20, 2
    fields = list(range(pos))
    while pos < len(blob):
        pos = _name(blob, pos, fields)
        for _ in range(tensors):
            pos = _tensor(blob, pos, fields)
    return fields


def offsets(fmt, blob):
    return st.integers(0, len(blob) - 1) | st.sampled_from(header_offsets(fmt, blob))


def load(files, fmt, blob):
    """Load ``blob`` as ``fmt``; return the refusal, or None on a clean load."""
    name, reader, error = FORMATS[fmt]
    path = files / f"mutated_{name}"
    path.write_bytes(blob)
    try:
        reader(path)
    except error as e:
        assert str(path) in str(e)
        return e
    return None


@pytest.mark.parametrize("fmt", FORMATS)
def test_valid_files_load(files, fmt):
    assert load(files, fmt, (files / FORMATS[fmt][0]).read_bytes()) is None


@pytest.mark.parametrize("fmt", FORMATS)
@FUZZ
@given(data=st.data())
def test_every_truncation_is_refused(files, fmt, data):
    blob = (files / FORMATS[fmt][0]).read_bytes()
    cut = data.draw(offsets(fmt, blob))
    assert load(files, fmt, blob[:cut]) is not None


@pytest.mark.parametrize("fmt", FORMATS)
@FUZZ
@given(extra=st.binary(min_size=1, max_size=64))
def test_every_extension_is_refused(files, fmt, extra):
    blob = (files / FORMATS[fmt][0]).read_bytes()
    assert load(files, fmt, blob + extra) is not None


@pytest.mark.parametrize("fmt", FORMATS)
@FUZZ
@given(data=st.data())
def test_one_changed_byte_loads_or_is_refused(files, fmt, data):
    blob = bytearray((files / FORMATS[fmt][0]).read_bytes())
    pos = data.draw(offsets(fmt, blob))
    blob[pos] ^= data.draw(st.integers(1, 255))
    load(files, fmt, bytes(blob))


def _cli_args(files, fmt, bad):
    """A command line that reads ``bad`` as a file of format ``fmt``."""
    if fmt == "svol":
        return ["eval", "--field", str(bad)]
    if fmt == "symt":
        vol = files / "zeros.svol"
        write_svol(vol, np.zeros((1,) + MODEL.input_shape, np.float32), KIND_IMAGE)
        return ["register", "--moving", str(vol), "--fixed", str(vol),
                "--checkpoint", str(bad)]
    # resume from a good checkpoint whose optimizer state is the bad file
    stem = bad.with_suffix("")
    stem.with_suffix(".symt").write_bytes((files / "model.symt").read_bytes())
    config = files / "train.json"
    config.write_text(json.dumps({
        "iterations": 4, "model": {"input_shape": [16, 16, 16], "base_dim": 8,
                                   "encoder_depths": [1, 1, 1],
                                   "decoder_depths": [1, 1, 1]},
        "data": {"extents": [16, 16, 16]}}))
    return ["train", "--config", str(config), "--out", str(files / "run"),
            "--resume", str(stem)]


@pytest.mark.parametrize("fmt", FORMATS)
def test_truncated_file_exits_2_through_the_cli(files, fmt, capsys):
    name = FORMATS[fmt][0]
    bad = files / f"cut_{name}"
    bad.write_bytes((files / name).read_bytes()[:10])
    code = main(_cli_args(files, fmt, bad))
    err = capsys.readouterr().err
    assert code == 2
    assert str(bad) in err
    assert "runs past the end" in err
    assert "Traceback" not in err


# no float32 payload can be made from it, so a writer raises after writing
# its header and every record before this one
UNWRITABLE = np.full((1, 2, 2, 2), "x", dtype=object)


def write_failing(fmt, path):
    if fmt == "svol":
        write_svol(path, UNWRITABLE, KIND_IMAGE)
        return
    bag, _ = init_model_params(MODEL, np.random.default_rng(1))
    last = list(bag)[-1]
    if fmt == "symt":
        save_checkpoint(path, MODEL, dict(bag, **{last: SimpleNamespace(data=UNWRITABLE)}))
    else:
        adam = init_adam(bag)
        adam.v[last] = UNWRITABLE
        save_opt_state(path, adam)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_a_write_that_fails_part_way_leaves_the_previous_file(files, fmt, tmp_path):
    name = FORMATS[fmt][0]
    previous = (files / name).read_bytes()
    (tmp_path / name).write_bytes(previous)
    with pytest.raises(ValueError, match="could not convert"):
        write_failing(fmt, tmp_path / name)
    assert (tmp_path / name).read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_atomic_write_hides_its_temporary_file_from_the_checkpoint_glob(tmp_path):
    path = tmp_path / "checkpoint_000001.symt"
    with binio.atomic_write(path) as f:
        f.write(b"new")
        assert len(list(tmp_path.iterdir())) == 1
        assert list(tmp_path.glob("checkpoint_*")) == []
    assert path.read_bytes() == b"new"
    assert list(tmp_path.iterdir()) == [path]
