"""Property tests for the parsers of untrusted input.

For any byte string, each parser returns a valid result or raises
``ContractError`` or ``CheckpointError``, nothing else; and ``csiqa score``
and ``csiqa eval`` on a mutated checkpoint exit 0, 2 or 3 without a
traceback. Examples are derandomized, so every run checks the same inputs.
"""

import contextlib
import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csiqa.checkpoint import array_from_bytes, read_checkpoint
from csiqa.cli import main, parse_config_file
from csiqa.data import ManifestRecord, generate_toy_dataset, read_manifest
from csiqa.errors import CheckpointError, ContractError
from csiqa.pipeline import (
    ModelConfig,
    TrainSettings,
    init_model,
    load_pretrained_csm,
    save_model,
    save_pretrained_csm,
    train,
)
from csiqa.pnm import read_image, write_pgm
from csiqa.sampling import init_reconstructor, random_sampling_matrix, reconstructor_shapes

from conftest import frame_checkpoint

INPUT_ERRORS = (ContractError, CheckpointError)
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)

framed_checkpoints = st.lists(
    st.tuples(st.binary(max_size=12), st.binary(max_size=40)), max_size=4,
).map(frame_checkpoint)
checkpoint_bytes = st.one_of(
    st.binary(max_size=80),
    framed_checkpoints,
    st.tuples(framed_checkpoints, st.integers(0, 200)).map(lambda t: t[0][:t[1]]),
)
array_payloads = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda dims, body: struct.pack(f"<I{len(dims)}Q", len(dims), *dims) + body,
        st.lists(st.integers(0, 4) | st.integers(0, 2**64 - 1), max_size=3),
        st.binary(max_size=64)),
)
pnm_bytes = st.one_of(
    st.binary(max_size=60),
    st.builds(
        lambda magic, w, h, maxval, body: magic + f"\n{w} {h}\n{maxval}\n".encode() + body,
        st.sampled_from([b"P5", b"P6"]), st.integers(-1, 5), st.integers(-1, 5),
        st.integers(-1, 300), st.binary(max_size=80)),
)
manifest_bytes = st.one_of(st.binary(max_size=80),
                           st.binary(max_size=80).map(lambda b: b"path,mos\n" + b))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def parse_file(path, data, parser):
    """``parser(path)`` on a file holding ``data``; None on an input error."""
    path.write_bytes(data)
    try:
        return parser(path)
    except INPUT_ERRORS:
        return None


@FUZZ
@given(data=checkpoint_bytes)
def test_read_checkpoint(workdir, data):
    blobs = parse_file(workdir / "c.ckpt", data, read_checkpoint)
    if blobs is not None:
        assert all(isinstance(n, str) and isinstance(p, bytes) for n, p in blobs)


@FUZZ
@given(payload=array_payloads)
def test_array_from_bytes(payload):
    try:
        arr = array_from_bytes(payload)
    except INPUT_ERRORS:
        return
    assert arr.dtype == np.float64
    assert len(payload) == 4 + 8 * arr.ndim + 8 * arr.size


@FUZZ
@given(data=pnm_bytes)
def test_read_image(workdir, data):
    img = parse_file(workdir / "i.pgm", data, read_image)
    if img is not None:
        assert img.ndim == 2 and img.size and 0.0 <= img.min() <= img.max() <= 1.0


@FUZZ
@given(data=manifest_bytes)
def test_read_manifest(workdir, data):
    records = parse_file(workdir / "manifest.csv", data, read_manifest)
    if records is not None:
        assert records and all(isinstance(r, ManifestRecord) and math.isfinite(r.mos)
                               for r in records)


@FUZZ
@given(data=st.binary(max_size=80))
def test_parse_config_file(workdir, data):
    values = parse_file(workdir / "run.cfg", data, parse_config_file)
    if values is not None:
        assert all(isinstance(k, str) and isinstance(v, str) for k, v in values.items())


@pytest.fixture(scope="module")
def score_inputs(workdir):
    """A small model's checkpoint blobs and a matching 8x8 image."""
    ckpt = workdir / "model.ckpt"
    cfg = ModelConfig(block_size=4, embed_dim=16, depth=1, heads=4, window=2, crop_size=8)
    save_model(ckpt, init_model(cfg))
    image = workdir / "image.pgm"
    write_pgm(image, np.random.default_rng(0).random((8, 8)))
    blobs = [(name.encode("utf-8"), payload) for name, payload in read_checkpoint(ckpt)]
    return blobs, str(image)


# One edit of a checkpoint: a blob's new name, new payload, one payload
# byte replaced, or a new blob inserted under a generated name, often in a
# group the loaders know (index, position and byte wrap around).
blob_names = st.builds(lambda group, rest: group + rest,
                       st.sampled_from([b"", b"param/", b"opt/", b"opt/m/", b"rng/", b"meta/"]),
                       st.binary(max_size=12))
edits = st.one_of(
    st.tuples(st.just("name"), st.integers(0, 99), st.binary(max_size=16)),
    st.tuples(st.just("payload"), st.integers(0, 99), st.binary(max_size=40)),
    st.tuples(st.just("byte"), st.integers(0, 99), st.integers(0, 2**16), st.integers(0, 255)),
    st.tuples(st.just("insert"), st.integers(0, 99), blob_names, st.binary(max_size=40)),
)


def apply_edit(blobs, edit):
    blobs = list(blobs)
    kind, index, *args = edit
    if kind == "insert":
        blobs.insert(index % (len(blobs) + 1), tuple(args))
        return frame_checkpoint(blobs)
    name, payload = blobs[index % len(blobs)]
    if kind == "name":
        name = args[0]
    elif kind == "payload":
        payload = args[0]
    elif payload:
        position, value = args
        payload = bytearray(payload)
        payload[position % len(payload)] = value
        payload = bytes(payload)
    blobs[index % len(blobs)] = (name, payload)
    return frame_checkpoint(blobs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on mutated weights
@settings(FUZZ, max_examples=100)
@given(edit=edits)
def test_score_on_mutated_checkpoint(workdir, score_inputs, edit):
    blobs, image = score_inputs
    ckpt = workdir / "mutated.ckpt"
    ckpt.write_bytes(apply_edit(blobs, edit))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["score", "--image", image, "--ckpt", str(ckpt), "--crops", "1"])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


def run_cli(args) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def eval_inputs(workdir):
    """Blobs of a small model's checkpoint after two training steps, with
    its optimizer moments and RNG state, and a manifest to evaluate on."""
    manifest = generate_toy_dataset(workdir / "toy", n_images=10, size=8, seed=5)
    cfg = ModelConfig(block_size=4, embed_dim=16, depth=1, heads=4, window=2, crop_size=8)
    run = train(read_manifest(manifest), cfg, TrainSettings(batch=4, lr=1e-3, steps=2,
                                                            val_every=0))
    ckpt = workdir / "trained.ckpt"
    save_model(ckpt, run.state, run.optimizer, run.rng, run.history)
    return [(name.encode("utf-8"), payload) for name, payload in read_checkpoint(ckpt)], manifest


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on mutated weights
@settings(FUZZ, max_examples=100)
@given(edit=edits)
def test_eval_on_mutated_checkpoint(workdir, eval_inputs, edit):
    blobs, manifest = eval_inputs
    ckpt = workdir / "mutated-trained.ckpt"
    ckpt.write_bytes(apply_edit(blobs, edit))
    code, err = run_cli(["eval", "--manifest", manifest, "--ckpt", str(ckpt), "--crops", "1"])
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def csm_blobs(workdir):
    """Blobs of a block-size 2, width 2 pretraining checkpoint."""
    rng = np.random.default_rng(0)
    ckpt = workdir / "csm.ckpt"
    save_pretrained_csm(ckpt, random_sampling_matrix(2, rng),
                        init_reconstructor(2, 0.5, rng, width=2), [0.25])
    return [(name.encode("utf-8"), payload) for name, payload in read_checkpoint(ckpt)]


# A pretraining meta/config with each key left out, valid, or any JSON scalar.
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
                         st.floats(), st.text(max_size=3))
csm_metas = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["csm-pretrain", "model"]),
    "block_size": st.one_of(st.just(2), json_scalars),
    "ratio": st.one_of(st.just(0.5), json_scalars),
    "width": st.one_of(st.just(2), json_scalars),
})


@st.composite
def csm_checkpoints(draw, blobs):
    """A pretraining checkpoint's bytes: any bytes, one edit of a valid
    file, or a valid file's parameter blobs under a generated meta/config."""
    return draw(st.one_of(
        checkpoint_bytes,
        edits.map(lambda edit: apply_edit(blobs, edit)),
        csm_metas.map(lambda meta: frame_checkpoint(
            [(b"meta/config", json.dumps(meta).encode())] + blobs[1:])),
    ))


@FUZZ
@given(data=st.data())
def test_load_pretrained_csm(workdir, csm_blobs, data):
    loaded = parse_file(workdir / "p.ckpt", data.draw(csm_checkpoints(csm_blobs)),
                        load_pretrained_csm)
    if loaded is not None:
        matrix, rec, _ = loaded
        side = rec.block_size ** 2
        assert matrix.shape == (side, side)
        shapes = reconstructor_shapes(rec.block_size, rec.ratio, rec.width)
        assert {name: t.shape for name, t in rec.params.items()} == shapes
