"""The unfused op chains that ``numerics``' fused encoder kernels stand for.

Each function here has the signature of the fused op it mirrors and is
built from the plain ops (``reshape``, ``permute``, ``bmm``, ``scale``,
``softmax``, ``add``, ``layer_norm``, ``affine``, ``gelu``). They are the
bitwise reference: a fused op must equal its chain in value and in every
input gradient. ``unfused_model`` swaps them in for the fused ops, so a
whole model forward can be run both ways.
"""

import math
from contextlib import contextmanager

from csiqa import numerics as nm


def split_heads(t, batch, tokens, heads):
    """(batch*tokens, d) or (batch, tokens, d) -> (batch, heads, tokens, d/heads)."""
    t = nm.reshape(t, (batch, tokens, heads, t.shape[-1] // heads))
    return nm.permute(t, (0, 2, 1, 3))


def merge_heads(t, shape):
    """Inverse of ``split_heads``, back to ``shape``."""
    return nm.reshape(nm.permute(t, (0, 2, 1, 3)), shape)


def batched_attention(q, k, v, head_dim):
    """Scaled dot-product attention on (batch, heads, tokens, head_dim) tensors."""
    scores = nm.scale(nm.bmm(q, nm.permute(k, (0, 1, 3, 2))), 1.0 / math.sqrt(head_dim))
    weights = nm.softmax(scores, axis=-1)
    return nm.bmm(weights, v), weights


def attention(q, k, v, batch, heads, return_weights=False):
    tokens = q.size // q.shape[-1] // batch
    q4, k4, v4 = (split_heads(t, batch, tokens, heads) for t in (q, k, v))
    out, weights = batched_attention(q4, k4, v4, q.shape[-1] // heads)
    merged = merge_heads(out, q.shape)
    return (merged, weights.data.copy()) if return_weights else merged


def residual_layer_norm(x, y, gain, bias):
    return nm.layer_norm(nm.add(x, y), gain, bias)


def affine_gelu(x, w, b):
    return nm.gelu(nm.affine(x, w, b))


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
