"""Operations on 2-D grids of tokens or pixels, N grids stacked row-wise.

Window attention reorders tokens by a cached permutation and its inverse
(``window_permutation``), whose backward through ``numerics.permute_rows``
is a gather by the inverse. The 3x3 convolution is an im2col
(``numerics.im2col3x3``, whose backward is nine shifted slice-adds)
followed by one ``affine``. Neither needs a scatter.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import numerics as nm
from .errors import ShapeError


def _per_sample(index: np.ndarray, batch: int, rows: int) -> np.ndarray:
    """Repeat a one-sample row index over ``batch`` samples stacked ``rows``
    apart, offsetting each copy into its own sample."""
    if batch == 1:
        return index
    offsets = rows * np.arange(batch, dtype=np.int64)[:, None]
    return (index + offsets).reshape(-1)


@lru_cache(maxsize=256)
def window_permutation(
    grid_h: int, grid_w: int, window: int, shift: int, batch: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Token order grouping a (cyclically shifted) grid into square windows.

    Returns (order, inverse): ``order`` lists token indices window by window;
    ``inverse`` undoes it, so reordering by ``order`` then ``inverse``
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
    cols = nm.im2col3x3(x, height, width)
    if weight.shape[0] != cols.shape[1]:
        raise ShapeError(
            f"kernel expects {weight.shape[0] // 9} channels, tokens have {x.shape[1]}")
    return nm.affine(cols, weight, bias)
