"""Operations on 2-D grids of tokens or pixels, N grids stacked row-wise.

Window attention reorders tokens by a cached permutation and its inverse
(``window_permutation``), whose backward through ``numerics.permute_rows``
is a gather by the inverse. The 3x3 convolution is one tape record whose
input gradient is nine contiguous adds on the flattened zero-padded grid.
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
    """3x3 same-padding convolution over tokens laid out on a grid, one tape op.

    x is (N*height*width, C_in), N grids stacked row-wise; weight is
    (9*C_in, C_out), neighbor-major. The forward is im2col(x) @ weight + bias.
    """
    cols = nm.im2col3x3(x.data, height, width)
    if weight.shape[0] != cols.shape[1] or bias.shape != weight.shape[1:]:
        raise ShapeError(
            f"kernel {weight.shape} and bias {bias.shape} do not fit {x.shape[1]} channels")
    out = cols @ weight.data + bias.data

    def backprop(g):
        if x.requires_grad:
            gp = _padded_input_grad(g, weight.data, height, width)
            nm._accumulate(x, gp[:, 1:-1, 1:-1].reshape(x.shape))
        if weight.requires_grad:
            nm._accumulate(weight, cols.T @ g)
        if bias.requires_grad:
            nm._accumulate(bias, g.sum(axis=0))

    return nm._make(out, (x, weight, bias), backprop)


def _padded_input_grad(g: np.ndarray, weight: np.ndarray, height: int, width: int) -> np.ndarray:
    """``conv3x3``'s input gradient on the zero-padded grids, (N, H+2, W+2, C_in).

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
    n, c_out = g.shape
    c_in = weight.shape[0] // 9
    batch, pitch = n // (height * width), width + 2
    rows = batch * (height + 2) * pitch
    corners = rows - 2 * pitch - 2  # rows that can be a window's corner
    g_pad = np.zeros((batch, height + 2, pitch, c_out))
    g_pad[:, :height, :width] = g.reshape(batch, height, width, c_out)
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
