"""Operations on 2-D grids of tokens or pixels, one row-major grid per
sample: arrays (..., H*W, C) whose leading axes are samples.

Window attention reorders each sample's tokens by one cached permutation
and its inverse (``window_permutation``), whose backward through
``numerics.permute_rows`` is a gather by the inverse. The 3x3 convolution
is one tape record, a matrix product over the rows of all samples, whose
input gradient is nine contiguous adds on the flattened zero-padded grids.
Neither needs a scatter. With one output channel, as in the last layer of
the pretraining reconstructor, each neighbour's share of the input
gradient is one product per entry, so it is taken channel-major by
broadcast multiplies, bitwise equal to the matrix product it replaces.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import numerics as nm
from .errors import ShapeError


@lru_cache(maxsize=256)
def window_permutation(
    grid_h: int, grid_w: int, window: int, shift: int
) -> tuple[np.ndarray, np.ndarray]:
    """Token order grouping a (cyclically shifted) grid into square windows.

    Returns (order, inverse): ``order`` lists token indices window by window;
    ``inverse`` undoes it, so reordering by ``order`` then ``inverse``
    restores the original token sequence.
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
    return order, inverse


def im2col3x3(x: np.ndarray, height: int, width: int) -> np.ndarray:
    """Zero-padded 3x3 neighbourhood of every position of ``x``, (..., H*W, C).

    Returns (positions, 9*C): each sample's positions in order, each row
    holding its nine neighbours row by row (neighbour-major, channel-minor);
    neighbours outside a grid read as zero, so samples never mix.
    """
    c = x.shape[-1]
    grids = x.reshape(-1, height, width, c)
    padded = np.zeros((grids.shape[0], height + 2, width + 2, c))
    padded[:, 1:-1, 1:-1] = grids
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(1, 2))
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, 9 * c)


def conv3x3(x: nm.Tensor, height: int, width: int, weight: nm.Tensor, bias: nm.Tensor) -> nm.Tensor:
    """3x3 same-padding convolution over tokens laid out on a grid, one tape op.

    x is (..., height*width, C_in), one grid per sample; weight is
    (9*C_in, C_out), neighbor-major. The forward is im2col(x) @ weight + bias
    on the rows of all samples, shaped back to (..., height*width, C_out).
    """
    if x.ndim < 2 or x.shape[-2] != height * width:
        raise ShapeError(f"tokens {x.shape} are not one {height}x{width} grid per sample")
    cols = im2col3x3(x.data, height, width)
    if weight.shape[0] != cols.shape[1] or bias.shape != weight.shape[1:]:
        raise ShapeError(
            f"kernel {weight.shape} and bias {bias.shape} do not fit {x.shape[-1]} channels")
    out = cols @ weight.data + bias.data

    def backprop(g):
        rows = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            gp = _padded_input_grad(g.reshape(-1, height, width, g.shape[-1]), weight.data)
            nm._accumulate(x, gp[:, 1:-1, 1:-1].reshape(x.shape))
        if weight.requires_grad:
            nm._accumulate(weight, cols.T @ rows)
        if bias.requires_grad:
            nm._accumulate(bias, rows.sum(axis=0))

    return nm._make(out.reshape(*x.shape[:-1], out.shape[1]), (x, weight, bias), backprop)


def _padded_input_grad(g: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``conv3x3``'s input gradient on the zero-padded grids, (N, H+2, W+2, C_in),
    from the output gradient ``g`` on the grids, (N, H, W, C_out).

    On the padded grids flattened to rows, the window cornered at row p
    covers rows p + dr*(width+2) + dc for neighbour k = 3*dr + dc. So with
    ``g`` laid at each window's corner row, neighbour k adds ``g_pad @ W_k.T``
    to one contiguous row range. k runs 8 to 0, as a scatter would reach
    each pixel.

    With one output channel each entry of ``g_pad @ W_k.T`` is a single
    product, rounded once however it is computed, so that case is done
    channel-major: (C_in, rows) shares by broadcast multiplies, with no
    matrix product of inner extent 1 and no adds over rows C_in wide.
    Matrix products for more output channels stay row-major; channel-major
    ones round differently for some shapes.
    """
    batch, height, width, c_out = g.shape
    c_in, pitch = weight.shape[0] // 9, width + 2
    rows = batch * (height + 2) * pitch
    corners = rows - 2 * pitch - 2  # rows that can be a window's corner
    g_pad = np.zeros((batch, height + 2, pitch, c_out))
    g_pad[:, :height, :width] = g
    g_pad = g_pad.reshape(rows, c_out)[:corners]
    offsets = [(k, k // 3 * pitch + k % 3) for k in range(8, -1, -1)]
    if c_out == 1:
        g_row = g_pad[:, 0]
        shares = np.empty((c_in, corners))
        gp = np.zeros((c_in, rows))
        for k, off in offsets:
            np.multiply(weight[k * c_in:(k + 1) * c_in], g_row, out=shares)
            gp[:, off:off + corners] += shares
        return gp.T.reshape(batch, height + 2, pitch, c_in)
    # one product for one channel: nine matrix-vector products would not
    # round as the reference's matrix product does
    shares = g_pad @ weight.T if c_in == 1 else np.empty((corners, c_in))
    gp = np.zeros((rows, c_in))
    for k, off in offsets:
        if c_in == 1:
            share = shares[:, k:k + 1]
        else:
            share = np.matmul(g_pad, weight[k * c_in:(k + 1) * c_in].T, out=shares)
        gp[off:off + corners] += share
    return gp.reshape(batch, height + 2, pitch, c_in)
