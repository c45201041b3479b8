"""Reference ops, and the unfused op chains that ``numerics``' fused encoder
kernels stand for.

``softmax``, ``layer_norm``, ``gelu`` and ``sum_all`` are plain ops that no
model path calls; they live here, built on ``numerics._make``, and
``tests/test_numerics.py`` checks them against finite differences. The
chains have the signatures of the fused ops they mirror and are built from
plain ops (``reshape``, ``permute``, ``bmm``, ``mul``, ``softmax``, ``add``,
``layer_norm``, ``affine``, ``gelu``). They are the bitwise reference: a
fused op must equal its chain in value and in every input gradient.
``unfused_model`` swaps them in for the fused ops, so a whole model forward
can be run both ways.
"""

import math
from contextlib import contextmanager

import numpy as np

from csiqa import numerics as nm
from csiqa.errors import ShapeError

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
GELU_CUBIC = 0.044715
LN_EPS = 1e-8


def sum_all(x):
    return nm.sum_axes(x, tuple(range(x.ndim)))


def softmax(x, axis=-1):
    """Max-stabilized softmax along ``axis``; outputs sum to 1 there."""
    if not (-x.ndim <= axis < x.ndim):
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backprop(g):
        if x.requires_grad:
            dot = (g * y).sum(axis=axis, keepdims=True)
            nm._accumulate(x, y * (g - dot))

    return nm._make(y, (x,), backprop)


def layer_norm(x, gain, bias, eps=LN_EPS):
    """Per-row normalization over the last axis, then affine gain and bias.

    Uses the biased variance. ``eps`` keeps the constant-row case finite.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gain.data + bias.data

    def backprop(g):
        if bias.requires_grad:
            nm._accumulate(bias, nm._unbroadcast(g, bias.shape))
        if gain.requires_grad:
            nm._accumulate(gain, nm._unbroadcast(g * xhat, gain.shape))
        if x.requires_grad:
            gx_hat = g * gain.data
            m1 = gx_hat.mean(axis=-1, keepdims=True)
            m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
            nm._accumulate(x, inv_std * (gx_hat - m1 - xhat * m2))

    return nm._make(out, (x, gain, bias), backprop)


def gelu(x):
    """Gaussian error linear unit, tanh approximation:
    0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).
    """
    sq = x.data * x.data
    u = SQRT_2_OVER_PI * (x.data + GELU_CUBIC * (sq * x.data))
    t = np.tanh(u)
    out = 0.5 * x.data * (1.0 + t)

    def backprop(g):
        if x.requires_grad:
            du = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_CUBIC * sq)
            local = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t * t) * du
            nm._accumulate(x, g * local)

    return nm._make(out, (x,), backprop)


def split_heads(t, batch, tokens, heads):
    """(batch*tokens, d) or (batch, tokens, d) -> (batch, heads, tokens, d/heads)."""
    t = nm.reshape(t, (batch, tokens, heads, t.shape[-1] // heads))
    return nm.permute(t, (0, 2, 1, 3))


def merge_heads(t, shape):
    """Inverse of ``split_heads``, back to ``shape``."""
    return nm.reshape(nm.permute(t, (0, 2, 1, 3)), shape)


def batched_attention(q, k, v, head_dim):
    """Scaled dot-product attention on (batch, heads, tokens, head_dim) tensors."""
    scores = nm.mul(nm.bmm(q, nm.permute(k, (0, 1, 3, 2))), nm.Tensor(1.0 / math.sqrt(head_dim)))
    weights = softmax(scores, axis=-1)
    return nm.bmm(weights, v), weights


def attention(q, k, v, batch, heads, return_weights=False):
    tokens = q.size // q.shape[-1] // batch
    q4, k4, v4 = (split_heads(t, batch, tokens, heads) for t in (q, k, v))
    out, weights = batched_attention(q4, k4, v4, q.shape[-1] // heads)
    merged = merge_heads(out, q.shape)
    return (merged, weights.data.copy()) if return_weights else merged


def residual_layer_norm(x, y, gain, bias):
    return layer_norm(nm.add(x, y), gain, bias)


def affine_gelu(x, w, b):
    return gelu(nm.affine(x, w, b))


UNFUSED = {"attention": attention, "residual_layer_norm": residual_layer_norm,
           "affine_gelu": affine_gelu}


@contextmanager
def unfused_model():
    """Run the model with every fused kernel replaced by its unfused chain."""
    fused = {name: getattr(nm, name) for name in UNFUSED}
    try:
        for name, fn in UNFUSED.items():
            setattr(nm, name, fn)
        yield
    finally:
        for name, fn in fused.items():
            setattr(nm, name, fn)
