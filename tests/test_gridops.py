"""Grid ops against gather + ``np.add.at`` references, bit for bit.

The references rebuild the index arrays the model path used before it
became scatter-free; both must give identical values and gradients.
"""

import numpy as np
import pytest

from csiqa import encoder as enc
from csiqa import numerics as nm
from csiqa import sampling as sp
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


def reference_conv3x3(x, height, width, weight, bias):
    n, c = x.shape
    gathered = nm.gather_rows(x, conv3x3_index(height, width, n // (height * width)))
    return nm.affine(nm.reshape(gathered, (n, 9 * c)), weight, bias)


def reference_window_msa(x, grid, p, heads, window, shift):
    n, d = x.shape
    order, inverse = window_permutation(
        grid.blocks_h, grid.blocks_w, window, shift, n // grid.num_blocks)
    area = window * window
    xw = nm.gather_rows(x, order)
    q, k, v = (split_heads(t, n // area, area, heads) for t in enc._project_qkv(xw, p))
    out, _ = batched_attention(q, k, v, d // heads)
    projected = nm.affine(merge_heads(out, (n, d)), p["attn.wo"], p["attn.ob"])
    return nm.gather_rows(projected, inverse)


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
    n = batch * height * width
    x = nm.Tensor(rng.normal(size=(n, channels)), requires_grad=True)
    weight = nm.Tensor(rng.normal(size=(9 * channels, out_channels)), requires_grad=True)
    bias = nm.Tensor(rng.normal(size=out_channels), requires_grad=True)
    readout = rng.normal(size=(n, out_channels))
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
    n = batch * height * width
    inputs = [
        nm.Tensor(rng.normal(size=(n, channels)), requires_grad=True),
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
    n = batch * grid.num_blocks
    x = nm.Tensor(rng.normal(size=(n, d)), requires_grad=True)
    readout = rng.normal(size=(n, d))
    inputs = [x] + list(p.values())
    new = value_and_grads(
        lambda: enc.window_msa(x, grid, p, heads, window, shift), inputs, readout)
    ref = value_and_grads(
        lambda: reference_window_msa(x, grid, p, heads, window, shift), inputs, readout)
    for name, a, b in zip(["out", "x"] + list(p), new, ref):
        assert np.array_equal(a, b), name
