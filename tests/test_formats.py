"""Malformed SVOL and SYMT files, fuzzed with hypothesis.

Every truncation, every extension and every single changed byte of a valid
file is refused: the CRC32 trailer catches a change that leaves every field
readable. Refused means the format's own ``ValueError`` subclass with the
file's path in the message: never ``struct.error``, ``MemoryError`` or
``IndexError``, and never a traceback out of the command line. And a write
that fails part-way leaves the file it was replacing as it was.
"""

import json
import math
import struct
import zlib
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

MODEL = ModelConfig(input_shape=(16, 16, 16), base_dim=8,
                    encoder_depths=(1, 1, 1), decoder_depths=(1, 1, 1))
PARAMETERS = len(init_model_params(MODEL, np.random.default_rng(0))[0])

# format -> (file name, reader, error class); symt-adam is a SYMT file past
# step 0, which holds Adam's moment records
FORMATS = {
    "svol": ("vol.svol", read_svol, SvolError),
    "symt": ("model.symt", load_checkpoint, CheckpointError),
    "symt-adam": ("model_17.symt", load_checkpoint, CheckpointError),
}

FUZZ = settings(max_examples=40, deadline=None)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("formats")
    rng = np.random.default_rng(0)
    write_svol(d / "vol.svol", rng.random((1, 4, 4, 4)).astype(np.float32), KIND_IMAGE)
    bag, _ = init_model_params(MODEL, rng)
    save_checkpoint(d / "model.symt", MODEL, bag)
    # all-zero first moments, so a rank flipped upward reads zero extents
    # from the payload that follows
    save_checkpoint(d / "model_17.symt", MODEL, bag, adam_state(bag, rng))
    return d


def adam_state(bag, rng):
    """Adam's (step, m, v) at step 17, with zero first moments."""
    return (17, {n: np.zeros_like(t.data) for n, t in bag.items()},
            {n: rng.random(t.shape).astype(np.float32) for n, t in bag.items()})


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
    trailer = list(range(len(blob) - 4, len(blob)))
    if fmt == "svol":
        return list(range(25)) + trailer
    # magic, version, config blob; then name + tensor for each parameter;
    # then Adam's step and record count, and name + two moments each
    pos = 12 + struct.unpack_from("<I", blob, 8)[0]
    fields = list(range(pos))
    for _ in range(PARAMETERS):
        pos = _tensor(blob, _name(blob, pos, fields), fields)
    fields.extend(range(pos, pos + 12))
    (count,) = struct.unpack_from("<I", blob, pos + 8)
    pos += 12
    for _ in range(count):
        pos = _tensor(blob, _tensor(blob, _name(blob, pos, fields), fields), fields)
    return fields + trailer


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
    # since the CRC32 trailer, no changed byte loads
    blob = bytearray((files / FORMATS[fmt][0]).read_bytes())
    pos = data.draw(offsets(fmt, blob))
    blob[pos] ^= data.draw(st.integers(1, 255))
    assert load(files, fmt, bytes(blob)) is not None


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_changed_payload_bit_is_refused_by_the_crc(files, fmt):
    # the lowest bit of the first float: the value stays finite and every
    # field stays readable, so only the trailer can tell
    blob = bytearray((files / FORMATS[fmt][0]).read_bytes())
    pos = min(set(range(len(blob))) - set(header_offsets(fmt, blob)))
    blob[pos] ^= 1
    assert "CRC32 trailer" in str(load(files, fmt, bytes(blob)))


def test_svol_version_1_is_refused_by_number(files, capsys):
    # version 1 had no CRC32 trailer
    old = files / "v1.svol"
    old.write_bytes(b"SVOL" + struct.pack("<I", 1) + (files / "vol.svol").read_bytes()[8:-4])
    assert main(_cli_args(files, "svol", old)) == 2
    err = capsys.readouterr().err
    assert f"{old}: unsupported SVOL version 1; this build reads version 2" in err
    assert "Traceback" not in err


def _cli_args(files, fmt, bad):
    """A command line that reads ``bad`` as a file of format ``fmt``."""
    if fmt == "svol":
        return ["eval", "--field", str(bad)]
    if fmt == "symt":
        vol = files / "zeros.svol"
        write_svol(vol, np.zeros((1,) + MODEL.input_shape, np.float32), KIND_IMAGE)
        return ["register", "--moving", str(vol), "--fixed", str(vol),
                "--checkpoint", str(bad)]
    # resume from the bad file, whose moments train reads
    stem = bad.with_suffix("")
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
    rng = np.random.default_rng(1)
    bag, _ = init_model_params(MODEL, rng)
    last = list(bag)[-1]
    if fmt == "symt":
        save_checkpoint(path, MODEL, dict(bag, **{last: SimpleNamespace(data=UNWRITABLE)}))
    else:
        step, m, v = adam_state(bag, rng)
        save_checkpoint(path, MODEL, bag, (step, m, dict(v, **{last: UNWRITABLE})))


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
    assert path.read_bytes() == b"new" + struct.pack("<I", zlib.crc32(b"new"))
    assert list(tmp_path.iterdir()) == [path]
