"""Deep feature extraction over the token grid.

A stack of post-norm transformer blocks (normalization applied after each
residual addition, not before the sublayer) is followed by a windowed
refinement module: two window-attention layers over w x w tiles of the token
grid, the second with the tiling cyclically shifted by floor(w/2), then a
3x3 convolution over the grid scaled by the fixed factor ``CONV_SCALE``
(0.1) and added back as a residual. Window attention uses a cyclic shift
without attention masking; grids are expected to be divisible by the
window size. Tokens are (L, d) or (N, L, d), one grid per sample, in every
block and in the refinement.

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

from . import numerics as nm
from .gridops import conv3x3, window_permutation
from .sampling import BlockGrid


# Fixed geometry: the feed-forward width per token width, the window
# layers in a refinement module (unshifted, then shifted) and the fixed
# scale of its conv residual, as in MANIQA's scale Swin block.
FF_MULT = 4
REFINE_LAYERS = 2
CONV_SCALE = 0.1


# ---------------------------------------------------------------------------
# Parameter shapes
# ---------------------------------------------------------------------------

def block_shapes(embed_dim: int) -> dict[str, tuple[int, ...]]:
    """Parameter shapes of one post-norm block: attention, two norms,
    feed-forward, in draw order.

    The k projection has no bias: it would add ``q . kb`` to every score of
    a query, a constant shift of its softmax row, so nothing could learn it.
    """
    d, ff = embed_dim, FF_MULT * embed_dim
    return {
        "attn.wq": (d, d), "attn.qb": (d,),
        "attn.wk": (d, d),
        "attn.wv": (d, d), "attn.vb": (d,),
        "attn.wo": (d, d), "attn.ob": (d,),
        "ln1.g": (d,), "ln1.b": (d,),
        "ff.w1": (d, ff), "ff.b1": (ff,),
        "ff.w2": (ff, d), "ff.b2": (d,),
        "ln2.g": (d,), "ln2.b": (d,),
    }


def encoder_shapes(depth: int, embed_dim: int) -> dict[str, tuple[int, ...]]:
    """``depth`` blocks under ``block{i}.``."""
    block = block_shapes(embed_dim)
    return {f"block{i}.{k}": shape for i in range(depth) for k, shape in block.items()}


def refiner_shapes(embed_dim: int) -> dict[str, tuple[int, ...]]:
    """The window layers under ``stl{i}.``, then the conv residual."""
    block = block_shapes(embed_dim)
    shapes = {f"stl{i}.{k}": shape for i in range(REFINE_LAYERS) for k, shape in block.items()}
    shapes["conv.w"] = (9 * embed_dim, embed_dim)
    shapes["conv.b"] = (embed_dim,)
    return shapes


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

    def group(self, name: str) -> "ParamGroup":
        """The sub-group under ``name.``."""
        return ParamGroup(self.params, f"{self.prefix}{name}.")


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

def _project_qkv(x: nm.Tensor, p: Mapping[str, nm.Tensor]):
    q = nm.affine(x, p["attn.wq"], p["attn.qb"])
    k = nm.matmul(x, p["attn.wk"])
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

    ``x`` is (L, d) or (N, L, d), one token grid per sample, and the result
    has its shape. Every window of every sample goes through one fused
    ``numerics.attention`` record. With ``shift`` the tiling is cyclically
    rolled before windowing and unrolled afterwards. When the window covers
    the whole grid this equals global attention with the same parameters.
    With return_weights also the softmax attention array of shape
    (N*windows, heads, w*w, w*w).
    """
    order, inverse = window_permutation(grid.blocks_h, grid.blocks_w, window, shift)
    xw = nm.permute_rows(x, order, inverse)
    windows = math.prod(x.shape[:-2]) * grid.num_blocks // (window * window)
    attended = nm.attention(*_project_qkv(xw, p), windows, heads, return_weights)
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


def encode(x: nm.Tensor, params: ParamGroup, depth: int, heads: int) -> nm.Tensor:
    """Apply ``depth`` blocks in sequence. depth=0 is identity."""
    for i in range(depth):
        x = encoder_block(x, params.group(f"block{i}"), heads)
    return x


def window_refine(
    x: nm.Tensor,
    grid: BlockGrid,
    params: ParamGroup,
    heads: int,
    window: int,
) -> nm.Tensor:
    """Window-attention layers then a scaled 3x3 conv residual over the grid.

    ``x`` is (L, d) or (N, L, d) and the result has its shape. Layer i uses
    a cyclic shift of floor(w/2) on odd i, none on even i. The output is
    CONV_SCALE * Conv3x3(tokens) + tokens.
    """
    for i in range(REFINE_LAYERS):
        shift = (window // 2) if i % 2 else 0
        x = window_block(x, grid, params.group(f"stl{i}"), heads, window, shift)
    conv_out = conv3x3(x, grid.blocks_h, grid.blocks_w, params["conv.w"], params["conv.b"])
    return nm.add(nm.mul(conv_out, nm.Tensor(CONV_SCALE)), x)
