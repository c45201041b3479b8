import json
import os
import struct
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

import csiqa
from csiqa.checkpoint import array_to_bytes, read_checkpoint, write_checkpoint
from csiqa.pipeline import DEFAULT_RATIO_SET, ModelConfig, save_model

# Python expression: the scipy modules loaded in the interpreter evaluating it.
SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def run_fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter that imports this csiqa and this
    tests directory, and return the JSON value of its last output line.

    For checks on what a process loads: pytest's own process has imported
    scipy through test_metrics.
    """
    paths = [os.path.dirname(os.path.dirname(csiqa.__file__)), os.path.dirname(__file__)]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, paths + [os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def frame_checkpoint(blobs, version: int = 1) -> bytes:
    """Checkpoint container bytes for (name bytes, payload bytes) pairs with
    a correct CRC, so a test can store names ``write_checkpoint`` cannot."""
    out = b"CSIQ" + struct.pack("<II", version, len(blobs))
    for name, payload in blobs:
        out += struct.pack("<H", len(name)) + name + struct.pack("<Q", len(payload)) + payload
    return out + struct.pack("<I", zlib.crc32(out))


# The model config keys that became fixed geometry, as checkpoints written
# before then stored them.
OLD_CONFIG_KEYS = ("conv_scale", "ff_hidden", "ratio_set", "refine_modules")


def write_old_format_checkpoint(path, state) -> None:
    """Save ``state`` as a checkpoint written before the key bias and four
    config fields were dropped: the config also holds those four keys, and
    every attention block has a zero ``attn.kb`` blob after its ``attn.wk``."""
    save_model(path, state)
    config = dict(state.config.to_dict(), conv_scale=0.1,
                  ff_hidden=4 * state.config.embed_dim, ratio_set=list(DEFAULT_RATIO_SET),
                  refine_modules=1)
    meta = json.dumps({"kind": "model", "config": config}, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    blobs = []
    for name, payload in read_checkpoint(path):
        blobs.append((name, meta if name == "meta/config" else payload))
        if name.endswith(".attn.wk"):
            key_bias = np.zeros(state.config.embed_dim)
            blobs.append((name[:-len("wk")] + "kb", array_to_bytes(key_bias)))
    write_checkpoint(path, blobs)


# Checkpoints that declare a large geometry and hold no parameter: a model
# of 64-wide tokens and 4 blocks, and a pretraining reconstructor 256 wide.
GEOMETRY_ONLY_META = {
    "model": {"kind": "model", "config": ModelConfig(embed_dim=64, depth=4).to_dict()},
    "csm-pretrain": {"kind": "csm-pretrain", "block_size": 4, "ratio": 0.25, "width": 256},
}


def write_geometry_only_checkpoint(path, kind: str) -> str:
    """A ``kind`` checkpoint at ``path`` whose only blob is ``meta/config``."""
    write_checkpoint(path, [("meta/config", json.dumps(GEOMETRY_ONLY_META[kind]).encode())])
    return str(path)


def traced_peak(fn):
    """``fn()``'s result and the peak bytes ``tracemalloc`` saw while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def central_diff_grads(loss_fn, tensors, step=1e-5):
    """Central finite-difference gradient of loss_fn w.r.t. each tensor.

    loss_fn takes no arguments and must recompute the loss from the tensors'
    current data; entries are perturbed in place and restored.
    """
    grads = []
    for t in tensors:
        flat = t.data.ravel()
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn()
            flat[i] = orig - step
            down = loss_fn()
            flat[i] = orig
            g[i] = (up - down) / (2.0 * step)
        grads.append(g.reshape(t.data.shape))
    return grads


def max_rel_err(a, b, floor=1e-6):
    """Max elementwise |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
