"""Deep feature extraction over the token grid.

A stack of post-norm transformer blocks (normalization applied after each
residual addition, not before the sublayer) is followed by a windowed
refinement module: two window-attention layers over w x w tiles of the token
grid, the second with the tiling cyclically shifted by floor(w/2), then a
3x3 convolution over the grid scaled by a small factor and added back as a
residual. Window attention uses a cyclic shift without attention masking;
grids are expected to be divisible by the window size.

A block is nine tape records: the q/k/v projections, one fused
``numerics.attention`` over every sample (or window) and head, the output
projection, two fused ``numerics.residual_layer_norm`` and the feed-forward
as ``numerics.affine_gelu`` plus an affine; a window block adds its two
row permutations. Blocks read their parameters through a ``ParamGroup``,
a prefix view of the flat parameter dict.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ContractError, ShapeError
from .gridops import conv3x3, window_permutation
from .sampling import BlockGrid


@dataclass
class EncoderConfig:
    """Transformer stack geometry. ff_hidden defaults to 4 * embed_dim."""

    depth: int
    heads: int
    embed_dim: int
    ff_hidden: int | None = None

    def __post_init__(self):
        if self.depth < 0:
            raise ContractError(f"depth must be >= 0, got {self.depth}")
        if self.embed_dim % self.heads:
            raise ContractError(
                f"embed_dim {self.embed_dim} not divisible by {self.heads} heads")
        if self.ff_hidden is None:
            self.ff_hidden = 4 * self.embed_dim


@dataclass
class RefineConfig:
    """Windowed refinement: window size, conv residual scale, layer count."""

    window: int
    conv_scale: float = 0.1
    layers: int = 2

    def __post_init__(self):
        if self.window < 1:
            raise ContractError(f"window must be >= 1, got {self.window}")
        if not math.isfinite(self.conv_scale):
            raise ContractError("conv_scale must be finite")


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------

def _proj(rng, d_in, d_out, std):
    return nm.Tensor(nm.trunc_normal(rng, (d_in, d_out), std=std), requires_grad=True)


def _zeros(n):
    return nm.Tensor(np.zeros(n), requires_grad=True)


def _ones(n):
    return nm.Tensor(np.ones(n), requires_grad=True)


def init_block_params(
    embed_dim: int, ff_hidden: int, rng: np.random.Generator, std: float = 0.02
) -> dict[str, nm.Tensor]:
    """Parameters for one post-norm block: attention, two norms, feed-forward."""
    d = embed_dim
    params = {}
    for name in ("wq", "wk", "wv", "wo"):
        params[f"attn.{name}"] = _proj(rng, d, d, std)
        params[f"attn.{name[1]}b"] = _zeros(d)
    params["ln1.g"], params["ln1.b"] = _ones(d), _zeros(d)
    params["ff.w1"], params["ff.b1"] = _proj(rng, d, ff_hidden, std), _zeros(ff_hidden)
    params["ff.w2"], params["ff.b2"] = _proj(rng, ff_hidden, d, std), _zeros(d)
    params["ln2.g"], params["ln2.b"] = _ones(d), _zeros(d)
    return params


def init_encoder_params(
    cfg: EncoderConfig, rng: np.random.Generator, std: float = 0.02
) -> dict[str, nm.Tensor]:
    params = {}
    for i in range(cfg.depth):
        for k, v in init_block_params(cfg.embed_dim, cfg.ff_hidden, rng, std).items():
            params[f"block{i}.{k}"] = v
    return params


def init_refiner_params(
    embed_dim: int, ff_hidden: int, cfg: RefineConfig, rng: np.random.Generator,
    learnable_scale: bool = False, std: float = 0.02,
) -> dict[str, nm.Tensor]:
    params = {}
    for i in range(cfg.layers):
        for k, v in init_block_params(embed_dim, ff_hidden, rng, std).items():
            params[f"stl{i}.{k}"] = v
    params["conv.w"] = _proj(rng, 9 * embed_dim, embed_dim, std)
    params["conv.b"] = _zeros(embed_dim)
    if learnable_scale:
        params["conv.alpha"] = nm.Tensor(np.asarray(cfg.conv_scale), requires_grad=True)
    return params


class ParamGroup:
    """The parameters under one dotted prefix of a flat name -> tensor
    dict, keyed with the prefix stripped.

    Every lookup reads through to the flat dict, so a tensor replaced there
    is seen at once and no copy can go stale.
    """

    __slots__ = ("params", "prefix")

    def __init__(self, params: dict[str, nm.Tensor], prefix: str = ""):
        self.params = params
        self.prefix = prefix

    def __getitem__(self, key: str) -> nm.Tensor:
        return self.params[self.prefix + key]

    def __contains__(self, key) -> bool:
        return self.prefix + key in self.params

    def group(self, name: str) -> "ParamGroup":
        """The sub-group under ``name.``."""
        return ParamGroup(self.params, f"{self.prefix}{name}.")


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

def _project_qkv(x: nm.Tensor, p: Mapping[str, nm.Tensor]):
    q = nm.affine(x, p["attn.wq"], p["attn.qb"])
    k = nm.affine(x, p["attn.wk"], p["attn.kb"])
    v = nm.affine(x, p["attn.wv"], p["attn.vb"])
    return q, k, v


def msa(x: nm.Tensor, p: Mapping[str, nm.Tensor], heads: int, return_weights: bool = False):
    """Global multi-head self-attention over each sample's tokens.

    ``x`` is (L, d) or (N, L, d); every sample and head goes through one
    fused ``numerics.attention`` record. Returns the attended tokens; with
    return_weights also the softmax attention array of shape (heads, L, L),
    or (N, heads, L, L).
    """
    *lead, n, d = x.shape
    if d % heads:
        raise ContractError(f"token width {d} not divisible by {heads} heads")
    attended = nm.attention(*_project_qkv(x, p), math.prod(lead), heads, return_weights)
    if return_weights:
        attended, weights = attended
    result = nm.affine(attended, p["attn.wo"], p["attn.ob"])
    return (result, weights.reshape(*lead, heads, n, n)) if return_weights else result


def window_msa(
    x: nm.Tensor,
    grid: BlockGrid,
    p: Mapping[str, nm.Tensor],
    heads: int,
    window: int,
    shift: int = 0,
    return_weights: bool = False,
):
    """Multi-head self-attention restricted to w x w windows of the grid.

    ``x`` is (N*L, d): N token grids stacked row-wise. Every window of every
    sample goes through one fused ``numerics.attention`` record. With
    ``shift`` the tiling is cyclically rolled before windowing and unrolled
    afterwards. When the window covers the whole grid this equals global
    attention with the same parameters. With return_weights also the
    softmax attention array of shape (N*windows, heads, w*w, w*w).
    """
    n, d = x.shape
    if n % grid.num_blocks:
        raise ShapeError(f"{n} tokens do not fill whole {grid.blocks_h}x{grid.blocks_w} grids")
    if d % heads:
        raise ContractError(f"token width {d} not divisible by {heads} heads")
    order, inverse = window_permutation(
        grid.blocks_h, grid.blocks_w, window, shift, n // grid.num_blocks)
    xw = nm.permute_rows(x, order, inverse)
    attended = nm.attention(*_project_qkv(xw, p), n // (window * window), heads,
                            return_weights)
    if return_weights:
        attended, weights = attended
    projected = nm.affine(attended, p["attn.wo"], p["attn.ob"])
    result = nm.permute_rows(projected, inverse, order)
    return (result, weights) if return_weights else result


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------

def _post_norm_pair(x, attended, p):
    """Residual + norm, feed-forward, residual + norm (post-norm order)."""
    x1 = nm.residual_layer_norm(attended, x, p["ln1.g"], p["ln1.b"])
    hidden = nm.affine_gelu(x1, p["ff.w1"], p["ff.b1"])
    ff = nm.affine(hidden, p["ff.w2"], p["ff.b2"])
    return nm.residual_layer_norm(ff, x1, p["ln2.g"], p["ln2.b"])


def encoder_block(x: nm.Tensor, p: Mapping[str, nm.Tensor], heads: int) -> nm.Tensor:
    """One post-norm transformer block: Norm(MSA(x)+x) then Norm(FF(.)+.)."""
    return _post_norm_pair(x, msa(x, p, heads), p)


def window_block(
    x: nm.Tensor, grid: BlockGrid, p: Mapping[str, nm.Tensor], heads: int, window: int,
    shift: int,
) -> nm.Tensor:
    """Post-norm block whose attention is restricted to (shifted) windows."""
    return _post_norm_pair(x, window_msa(x, grid, p, heads, window, shift), p)


def encode(x: nm.Tensor, params: ParamGroup, cfg: EncoderConfig) -> nm.Tensor:
    """Apply the configured number of blocks in sequence. depth=0 is identity."""
    for i in range(cfg.depth):
        x = encoder_block(x, params.group(f"block{i}"), cfg.heads)
    return x


def window_refine(
    x: nm.Tensor,
    grid: BlockGrid,
    params: ParamGroup,
    heads: int,
    cfg: RefineConfig,
) -> nm.Tensor:
    """Window-attention layers then a scaled 3x3 conv residual over the grid.

    ``x`` is (L, d) or (N, L, d) and the result has its shape. Layer i uses
    a cyclic shift of floor(w/2) on odd i, none on even i. The output is
    conv_scale * Conv3x3(tokens) + tokens.
    """
    shape = x.shape
    x = nm.reshape(x, (x.size // shape[-1], shape[-1]))
    for i in range(cfg.layers):
        shift = (cfg.window // 2) if i % 2 else 0
        x = window_block(x, grid, params.group(f"stl{i}"), heads, cfg.window, shift)
    conv_out = conv3x3(x, grid.blocks_h, grid.blocks_w, params["conv.w"], params["conv.b"])
    if "conv.alpha" in params:
        scaled = nm.mul(conv_out, params["conv.alpha"])
    else:
        scaled = nm.scale(conv_out, cfg.conv_scale)
    return nm.reshape(nm.add(scaled, x), shape)
