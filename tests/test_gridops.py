"""Grid ops against gather + ``np.add.at`` references, bit for bit.

The references rebuild the index arrays the model path used before it
became scatter-free; both must give identical values and gradients.
"""

import numpy as np
import pytest

from csiqa import encoder as enc
from csiqa import numerics as nm
from csiqa import sampling as sp
from csiqa.errors import ShapeError
from csiqa.gridops import conv3x3, window_permutation
from csiqa.sampling import BlockGrid

from unfused import batched_attention, merge_heads, split_heads, sum_all


def conv3x3_index(height, width, batch):
    """Rows of each position's 3x3 neighbourhood, -1 = zero pad, position-major."""
    idx = np.full((height, width, 3, 3), -1, dtype=np.int64)
    rows = np.arange(height)[:, None, None, None]
    cols = np.arange(width)[None, :, None, None]
    dr = np.arange(-1, 2)[None, None, :, None]
    dc = np.arange(-1, 2)[None, None, None, :]
    rr, cc = rows + dr, cols + dc
    inside = (rr >= 0) & (rr < height) & (cc >= 0) & (cc < width)
    idx[inside] = (rr * width + cc)[inside]
    idx = idx.reshape(-1)
    offsets = height * width * np.arange(batch, dtype=np.int64)[:, None]
    return np.where(idx >= 0, idx + offsets, -1).reshape(-1)


def stacked(index, batch, rows):
    """A one-sample row index repeated over ``batch`` samples stacked
    ``rows`` apart, each copy offset into its own sample."""
    return (index + rows * np.arange(batch, dtype=np.int64)[:, None]).reshape(-1)


def reference_conv3x3(x, height, width, weight, bias):
    batch, _, c = x.shape
    n = batch * height * width
    rows = nm.reshape(x, (n, c))
    gathered = nm.gather_rows(rows, conv3x3_index(height, width, batch))
    out = nm.affine(nm.reshape(gathered, (n, 9 * c)), weight, bias)
    return nm.reshape(out, (batch, height * width, weight.shape[1]))


def reference_window_msa(x, grid, p, heads, window, shift):
    batch, tokens, d = x.shape
    n = batch * tokens
    order, inverse = window_permutation(grid.blocks_h, grid.blocks_w, window, shift)
    area = window * window
    xw = nm.gather_rows(nm.reshape(x, (n, d)), stacked(order, batch, tokens))
    q, k, v = (split_heads(t, n // area, area, heads) for t in enc._project_qkv(xw, p))
    out, _ = batched_attention(q, k, v, d // heads)
    projected = nm.affine(merge_heads(out, (n, d)), p["attn.wo"], p["attn.ob"])
    return nm.reshape(nm.gather_rows(projected, stacked(inverse, batch, tokens)), x.shape)


def value_and_grads(fn, inputs, readout):
    """Output and every input's gradient of sum(fn() * readout)."""
    for t in inputs:
        t.zero_grad()
    with nm.GradTape() as tape:
        out = fn()
        loss = sum_all(nm.mul(out, nm.Tensor(readout)))
    tape.backward(loss)
    return [out.data] + [t.grad for t in inputs]


@pytest.mark.parametrize("batch,height,width,channels,out_channels", [
    pytest.param(8, 8, 8, 32, 6, id="8-8-8-32"),
    pytest.param(3, 5, 7, 4, 6, id="3-5-7-4"),
    # one output channel: the channel-major input gradient
    pytest.param(3, 5, 7, 4, 1, id="3-5-7-4-1"),
    pytest.param(3, 5, 7, 1, 1, id="3-5-7-1-1"),
    # the three layers of a pretraining reconstructor on 8 images of 24x24
    (8, 24, 24, 1, 16),
    (8, 24, 24, 16, 16),
    (8, 24, 24, 16, 1),
])
def test_conv3x3_bitwise_equals_gather_scatter_reference(
        batch, height, width, channels, out_channels, rng):
    x = nm.Tensor(rng.normal(size=(batch, height * width, channels)), requires_grad=True)
    weight = nm.Tensor(rng.normal(size=(9 * channels, out_channels)), requires_grad=True)
    bias = nm.Tensor(rng.normal(size=out_channels), requires_grad=True)
    readout = rng.normal(size=(batch, height * width, out_channels))
    inputs = [x, weight, bias]
    new = value_and_grads(lambda: conv3x3(x, height, width, weight, bias), inputs, readout)
    ref = value_and_grads(
        lambda: reference_conv3x3(x, height, width, weight, bias), inputs, readout)
    for name, a, b in zip(("out", "x", "weight", "bias"), new, ref):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("channels,out_channels", [(4, 1), (1, 1), (4, 6), (1, 16)])
def test_conv3x3_backward_writes_only_its_own_arrays(channels, out_channels, rng):
    """The backward leaves its incoming gradient, every input's data and
    every earlier gradient untouched."""
    height, width, batch = 5, 7, 3
    inputs = [
        nm.Tensor(rng.normal(size=(batch, height * width, channels)), requires_grad=True),
        nm.Tensor(rng.normal(size=(9 * channels, out_channels)), requires_grad=True),
        nm.Tensor(rng.normal(size=out_channels), requires_grad=True),
    ]
    for t in inputs:
        t.grad = rng.normal(size=t.shape)
    with nm.GradTape() as tape:
        out = conv3x3(inputs[0], height, width, *inputs[1:])
    g = rng.normal(size=out.shape)
    earlier = [t.grad for t in inputs]
    held = [g] + [t.data for t in inputs] + earlier
    snapshots = [a.copy() for a in held]
    ((_, backprop),) = tape._records
    backprop(g)
    for a, before in zip(held, snapshots):
        assert np.array_equal(a, before)
    assert all(t.grad is not e for t, e in zip(inputs, earlier))


def test_pretraining_bitwise_equals_gather_scatter_conv(rng, monkeypatch):
    corpus = [rng.random((24, 24)) for _ in range(3)]
    args = dict(ratio=0.25, epochs=4, lr=3e-3, block_size=4, width=16, seed=2)
    m_new, rec_new, losses_new = sp.pretrain_csm(corpus, **args)
    monkeypatch.setattr(sp, "conv3x3", reference_conv3x3)
    m_ref, rec_ref, losses_ref = sp.pretrain_csm(corpus, **args)
    assert np.array_equal(losses_new, losses_ref)
    assert np.array_equal(m_new.data, m_ref.data)
    for name, t in rec_ref.params.items():
        assert np.array_equal(rec_new.params[name].data, t.data), name


@pytest.mark.parametrize("batch,shift", [(1, 0), (3, 1)])
def test_window_msa_bitwise_equals_gather_scatter_reference(batch, shift, rng):
    d, heads, window = 8, 2, 2
    grid = BlockGrid(4, 6, 1)
    p = nm.init_params(enc.block_shapes(d), rng, std=0.3)
    x = nm.Tensor(rng.normal(size=(batch, grid.num_blocks, d)), requires_grad=True)
    readout = rng.normal(size=(batch, grid.num_blocks, d))
    inputs = [x] + list(p.values())
    new = value_and_grads(
        lambda: enc.window_msa(x, grid, p, heads, window, shift), inputs, readout)
    ref = value_and_grads(
        lambda: reference_window_msa(x, grid, p, heads, window, shift), inputs, readout)
    for name, a, b in zip(["out", "x"] + list(p), new, ref):
        assert np.array_equal(a, b), name


# batch, grid height, grid width, window, shift
GEOMETRIES = [(1, 2, 2, 1, 0), (2, 2, 2, 2, 1), (3, 2, 4, 2, 0), (2, 4, 6, 1, 1),
              (3, 4, 6, 2, 1)]
D, HEADS = 8, 2


def grid_ops(rng, height, width, window, shift):
    """Each grid op on one geometry, as a function of its tokens (..., L, C)."""
    grid = BlockGrid(height, width, 1)
    block = nm.init_params(enc.block_shapes(D), rng, std=0.3)
    refiner = enc.ParamGroup(nm.init_params(enc.refiner_shapes(D), rng, std=0.3))
    weight = nm.Tensor(rng.normal(size=(9 * D, 5)))
    bias = nm.Tensor(rng.normal(size=5))
    return {
        "window_msa": lambda x: enc.window_msa(x, grid, block, HEADS, window, shift),
        "window_refine": lambda x: enc.window_refine(x, grid, refiner, HEADS, window),
        "conv3x3": lambda x: conv3x3(x, height, width, weight, bias),
    }


def output_and_input_grad(op, x, readout):
    x = nm.Tensor(x, requires_grad=True)
    return value_and_grads(lambda: op(x), [x], readout)


@pytest.mark.parametrize("batch,height,width,window,shift", GEOMETRIES)
def test_grid_ops_on_a_stack_equal_each_sample_alone(batch, height, width, window, shift, rng):
    x = rng.normal(size=(batch, height * width, D))
    for name, op in grid_ops(rng, height, width, window, shift).items():
        readout = rng.normal(size=op(nm.Tensor(x)).shape)
        out, grad = output_and_input_grad(op, x, readout)
        for i in range(batch):
            alone, alone_grad = output_and_input_grad(op, x[i], readout[i])
            assert np.max(np.abs(out[i] - alone)) <= 1e-12, name
            assert np.max(np.abs(grad[i] - alone_grad)) <= 1e-12, name


@pytest.mark.parametrize("height,width,window,shift", [g[1:] for g in GEOMETRIES])
def test_grid_ops_one_sample_equals_its_stack_of_one(height, width, window, shift, rng):
    x = rng.normal(size=(height * width, D))
    for name, op in grid_ops(rng, height, width, window, shift).items():
        readout = rng.normal(size=op(nm.Tensor(x)).shape)
        out, grad = output_and_input_grad(op, x, readout)
        stacked_out, stacked_grad = output_and_input_grad(op, x[None], readout[None])
        assert out.shape == stacked_out.shape[1:], name
        assert np.array_equal(out, stacked_out[0]), name
        assert np.array_equal(grad, stacked_grad[0]), name


@pytest.mark.parametrize("shape", [(10, D), (2 * 12, D), (2, 10, D), (12,)])
def test_tokens_not_one_grid_per_sample_rejected(shape, rng):
    """(N*L, C) rows of stacked grids are no longer a layout: the token axis
    must hold exactly one grid."""
    for name, op in grid_ops(rng, 3, 4, 1, 0).items():
        with pytest.raises(ShapeError):
            op(nm.Tensor(np.zeros(shape)))
