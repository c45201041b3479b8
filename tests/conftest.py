import json
import os
import subprocess
import sys

import numpy as np
import pytest

import csiqa

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
