"""Index plumbing for operations on 2-D grids of tokens or pixels.

All index arrays here are pure functions of geometry, cached, and must be
treated as read-only. Differentiable grid ops are built by combining these
indices with ``gather_rows``/``reshape``/``affine`` so no extra backward
rules are needed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import numerics as nm
from .errors import ShapeError


def _per_sample(index: np.ndarray, batch: int, rows: int) -> np.ndarray:
    """Repeat a one-sample row index over ``batch`` samples stacked ``rows``
    apart, offsetting each copy into its own sample; -1 stays -1."""
    if batch == 1:
        return index
    offsets = rows * np.arange(batch, dtype=np.int64)[:, None]
    return np.where(index >= 0, index + offsets, -1).reshape(-1)


@lru_cache(maxsize=256)
def conv3x3_index(height: int, width: int, batch: int = 1) -> np.ndarray:
    """Row indices selecting each position's 3x3 neighborhood, -1 = zero pad.

    Position-major, neighborhood scanned row by row, so a gather followed by
    a reshape to (batch*height*width, 9*channels) lines up with kernel
    weights laid out neighbor-major, channel-minor. Samples are stacked
    row-wise, each ``height*width`` rows, and never see each other's pixels.
    """
    idx = np.full((height, width, 3, 3), -1, dtype=np.int64)
    rows = np.arange(height)[:, None, None, None]
    cols = np.arange(width)[None, :, None, None]
    dr = np.arange(-1, 2)[None, None, :, None]
    dc = np.arange(-1, 2)[None, None, None, :]
    rr, cc = rows + dr, cols + dc
    inside = (rr >= 0) & (rr < height) & (cc >= 0) & (cc < width)
    idx[inside] = (rr * width + cc)[inside]
    return _per_sample(idx.reshape(-1), batch, height * width)


@lru_cache(maxsize=256)
def block_pixel_index(blocks_h: int, blocks_w: int, block_size: int) -> np.ndarray:
    """Map flattened per-block pixels back to row-major image pixels.

    Entry p gives the row in a (L*B^2, 1) stack of flattened blocks that
    holds image pixel p.
    """
    b = block_size
    h, w = blocks_h * b, blocks_w * b
    r = np.arange(h)[:, None]
    c = np.arange(w)[None, :]
    block = (r // b) * blocks_w + (c // b)
    offset = (r % b) * b + (c % b)
    return (block * b * b + offset).reshape(-1)


@lru_cache(maxsize=256)
def window_permutation(
    grid_h: int, grid_w: int, window: int, shift: int, batch: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Token order grouping a (cyclically shifted) grid into square windows.

    Returns (order, inverse): ``order`` lists token indices window by window;
    ``inverse`` undoes it, so gathering with ``order`` then ``inverse``
    restores the original token sequence. With ``batch`` samples stacked
    row-wise, each sample's windows follow the previous sample's.
    """
    if grid_h % window or grid_w % window:
        raise ShapeError(
            f"window {window} does not divide grid {grid_h}x{grid_w}")
    pos = np.arange(grid_h * grid_w, dtype=np.int64).reshape(grid_h, grid_w)
    if shift:
        pos = np.roll(pos, shift=(-shift, -shift), axis=(0, 1))
    nh, nw = grid_h // window, grid_w // window
    order = (
        pos.reshape(nh, window, nw, window)
        .transpose(0, 2, 1, 3)
        .reshape(-1)
    )
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size, dtype=np.int64)
    rows = grid_h * grid_w
    return _per_sample(order, batch, rows), _per_sample(inverse, batch, rows)


def conv3x3(x: nm.Tensor, height: int, width: int, weight: nm.Tensor, bias: nm.Tensor) -> nm.Tensor:
    """3x3 same-padding convolution over tokens laid out on a grid.

    x is (N*height*width, C_in), N grids stacked row-wise; weight is
    (9*C_in, C_out), neighbor-major.
    """
    n, c_in = x.shape
    if n % (height * width):
        raise ShapeError(f"{n} tokens do not fill whole {height}x{width} grids")
    if weight.shape[0] != 9 * c_in:
        raise ShapeError(f"kernel expects {weight.shape[0] // 9} channels, tokens have {c_in}")
    gathered = nm.gather_rows(x, conv3x3_index(height, width, n // (height * width)))
    stacked = nm.reshape(gathered, (n, 9 * c_in))
    return nm.affine(stacked, weight, bias)
