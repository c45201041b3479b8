"""Dual-branch scoring head: per-token scores and weights, pooled by a
weighted average.

Both branches share the same two-layer architecture (d -> d/2 -> 1 with a
GELU between); they differ only in the final activation, identity for the
scoring branch and sigmoid for the weighting branch so weights stay in
(0, 1). The pooled score is sum(s*w) / (sum(w) + eps).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from . import numerics as nm
from .errors import ContractError, ShapeError
from .sampling import BlockGrid

DENOMINATOR_EPS = 1e-8


def init_head_params(embed_dim: int, rng: np.random.Generator, std: float = 0.02) -> dict[str, nm.Tensor]:
    if embed_dim % 2:
        raise ContractError(f"embed_dim must be even for the d/2 hidden layer, got {embed_dim}")
    hidden = embed_dim // 2
    params = {}
    for branch in ("score", "weight"):
        params[f"{branch}.w1"] = nm.Tensor(
            nm.trunc_normal(rng, (embed_dim, hidden), std=std), requires_grad=True)
        params[f"{branch}.b1"] = nm.Tensor(np.zeros(hidden), requires_grad=True)
        params[f"{branch}.w2"] = nm.Tensor(
            nm.trunc_normal(rng, (hidden, 1), std=std), requires_grad=True)
        params[f"{branch}.b2"] = nm.Tensor(np.zeros(1), requires_grad=True)
    return params


def _branch(tokens: nm.Tensor, params: Mapping[str, nm.Tensor], name: str) -> nm.Tensor:
    hidden = nm.affine_gelu(tokens, params[f"{name}.w1"], params[f"{name}.b1"])
    return nm.affine(hidden, params[f"{name}.w2"], params[f"{name}.b2"])


def aggregate(scores: nm.Tensor, weights: nm.Tensor, eps: float = DENOMINATOR_EPS) -> nm.Tensor:
    """Weighted average sum(s*w) / (sum(w) + eps) over each sample's tokens.

    ``scores`` and ``weights`` are (L, 1) per-token columns, giving a scalar
    tensor, or (N, L, 1), giving one pooled value per sample, shape (N,).
    """
    if scores.shape != weights.shape:
        raise ShapeError(f"scores {scores.shape} and weights {weights.shape} differ")
    tokens = (-2, -1)
    numerator = nm.sum_axes(nm.mul(scores, weights), tokens)
    denominator = nm.add(nm.sum_axes(weights, tokens), nm.Tensor(float(eps)))
    return nm.div(numerator, denominator)


def score(
    tokens: nm.Tensor, params: Mapping[str, nm.Tensor], eps: float = DENOMINATOR_EPS
) -> tuple[nm.Tensor, np.ndarray, np.ndarray]:
    """Pool token features into one quality score per sample.

    ``tokens`` is (L, d), giving a scalar score tensor, or (N, L, d), giving
    (N,) scores; each sample is pooled over its own tokens only. Also
    returns the per-token score and weight values, shape (L,) or (N, L)
    (detached copies), for inspection and weight-map rendering.
    """
    if tokens.shape[-2] < 1:
        raise ContractError("need at least one token to score")
    s = _branch(tokens, params, "score")
    w = nm.sigmoid(_branch(tokens, params, "weight"))
    pooled = aggregate(s, w, eps)
    per_token = tokens.shape[:-1]
    return pooled, s.data.reshape(per_token).copy(), w.data.reshape(per_token).copy()


def weight_map(weights: np.ndarray, grid: BlockGrid) -> np.ndarray:
    """Per-token weights as a min-max normalized grid image in [0, 1].

    A constant map normalizes to all 0.5 rather than dividing by zero.
    """
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if weights.size != grid.num_blocks:
        raise ContractError(
            f"{weights.size} weights do not fill grid "
            f"{grid.blocks_h}x{grid.blocks_w}")
    img = weights.reshape(grid.blocks_h, grid.blocks_w)
    lo, hi = img.min(), img.max()
    if hi - lo <= 1e-12:
        return np.full_like(img, 0.5)
    return (img - lo) / (hi - lo)
