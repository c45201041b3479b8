"""Fused encoder kernels against their unfused op chains, bit for bit.

``tests/unfused.py`` holds the chains. Each fused op must give the same
output and the same gradient for every input (``np.array_equal``), at the
desk model's shapes and at odd ones, and a whole desk training step must
give the same scores and parameter gradients with the fused ops as with the
chains, on fewer tape records.
"""

import numpy as np
import pytest

import unfused
from csiqa import numerics as nm
from csiqa import pipeline as pl
from csiqa.data import generate_toy_dataset, read_manifest
from csiqa.errors import ShapeError

# (op name, input shapes, positional arguments after the tensors)
CASES = [
    # desk encoder block: batch 8 of an 8x8 token grid, width 32, 4 heads
    pytest.param("attention", [(8, 64, 32)] * 3, (8, 4), id="attention-global-desk"),
    # desk window block: 128 windows of 2x2 tokens
    pytest.param("attention", [(128 * 4, 32)] * 3, (128, 4), id="attention-window-desk"),
    pytest.param("attention", [(3, 7, 6)] * 3, (3, 3), id="attention-odd"),
    pytest.param("attention", [(35, 10)] * 3, (5, 2), id="attention-odd-rows"),
    pytest.param("residual_layer_norm", [(8, 64, 32), (8, 64, 32), (32,), (32,)], (),
                 id="residual_layer_norm-global-desk"),
    pytest.param("residual_layer_norm", [(512, 32), (512, 32), (32,), (32,)], (),
                 id="residual_layer_norm-window-desk"),
    pytest.param("residual_layer_norm", [(3, 5, 7), (3, 5, 7), (7,), (7,)], (),
                 id="residual_layer_norm-odd"),
    pytest.param("affine_gelu", [(8, 64, 32), (32, 16), (16,)], (), id="affine_gelu-head-desk"),
    pytest.param("affine_gelu", [(8, 64, 32), (32, 128), (128,)], (),
                 id="affine_gelu-ff-global-desk"),
    pytest.param("affine_gelu", [(512, 32), (32, 128), (128,)], (),
                 id="affine_gelu-ff-window-desk"),
    pytest.param("affine_gelu", [(3, 5, 7), (7, 9), (9,)], (), id="affine_gelu-odd"),
]


def make_inputs(rng, shapes):
    return [nm.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


def value_and_grads(fn, inputs, readout):
    """Output and every input's gradient of sum(fn(*inputs) * readout)."""
    for t in inputs:
        t.zero_grad()
    with nm.GradTape() as tape:
        out = fn(*inputs)
        loss = unfused.sum_all(nm.mul(out, nm.Tensor(readout)))
    tape.backward(loss)
    return [out.data] + [t.grad for t in inputs]


@pytest.mark.parametrize("name,shapes,args", CASES)
def test_fused_op_bitwise_equals_unfused_chain(name, shapes, args, rng):
    inputs = make_inputs(rng, shapes)
    fused, chain = getattr(nm, name), unfused.UNFUSED[name]
    readout = rng.normal(size=fused(*inputs, *args).shape)  # untaped: records nothing
    new = value_and_grads(lambda *t: fused(*t, *args), inputs, readout)
    ref = value_and_grads(lambda *t: chain(*t, *args), inputs, readout)
    for i, (a, b) in enumerate(zip(new, ref)):
        assert a is not None and np.array_equal(a, b), "output" if i == 0 else f"input {i - 1}"


@pytest.mark.parametrize("name,shapes,args", CASES)
def test_fused_backward_writes_only_its_own_arrays(name, shapes, args, rng):
    """The incoming gradient may be shared (``add`` hands one array to both
    inputs), and an input may already hold a gradient from another use:
    the backward must leave both, and every input's data, untouched."""
    inputs = make_inputs(rng, shapes)
    for t in inputs:
        t.grad = rng.normal(size=t.shape)
    with nm.GradTape() as tape:
        out = getattr(nm, name)(*inputs, *args)
    g = rng.normal(size=out.shape)
    earlier = [t.grad for t in inputs]
    held = [g] + [t.data for t in inputs] + earlier
    snapshots = [a.copy() for a in held]
    ((_, backprop),) = tape._records
    backprop(g)
    for a, before in zip(held, snapshots):
        assert np.array_equal(a, before)
    # every input did receive a gradient, as a new sum
    assert all(t.grad is not e for t, e in zip(inputs, earlier))


def test_attention_weights_are_a_copy_of_the_saved_softmax(rng):
    q, k, v = make_inputs(rng, [(2, 5, 6)] * 3)
    with nm.GradTape() as tape:
        out, weights = nm.attention(q, k, v, 2, 3, return_weights=True)
        loss = unfused.sum_all(out)
    _, ref = unfused.attention(q, k, v, 2, 3, return_weights=True)
    assert np.array_equal(weights, ref)
    assert weights.shape == (2, 3, 5, 5)
    weights[...] = 0.0  # the caller's copy; the backward keeps its own
    tape.backward(loss)
    ref_grads = value_and_grads(lambda *t: unfused.attention(*t, 2, 3), [q, k, v],
                                np.ones(out.shape))
    assert np.array_equal(q.grad, ref_grads[1])


def test_attention_rejects_uneven_groups(rng):
    q = nm.Tensor(rng.normal(size=(6, 4)))
    with pytest.raises(ShapeError):
        nm.attention(q, q, q, 4, 2)
    with pytest.raises(ShapeError):
        nm.attention(q, q, q, 2, 3)


def desk_step(cfg, crops, mos):
    """Scores, diagnostics, parameter gradients and tape length of one
    training step's forward and backward."""
    state = pl.init_model(cfg)
    with nm.GradTape() as tape:
        scores, diag = pl.forward(crops, state, 0.1)
        diff = nm.sub(scores, nm.Tensor(mos))
        loss = nm.mean_all(nm.mul(diff, diff))
    records = len(tape)
    tape.backward(loss)
    return scores.data, diag, {k: p.grad for k, p in state.params.items()}, records


@pytest.mark.parametrize("variant", ["cl-iqa", "cs-iqa"])
def test_desk_step_bitwise_equals_unfused_model(variant, rng):
    # a wide init, so attention weights are far from uniform
    cfg = pl.ModelConfig(variant=variant, init_std=0.3, seed=5)
    crops = rng.random((8, 32, 32))
    mos = rng.random(8)
    scores, diag, grads, records = desk_step(cfg, crops, mos)
    with unfused.unfused_model():
        ref_scores, ref_diag, ref_grads, ref_records = desk_step(cfg, crops, mos)
    assert np.array_equal(scores, ref_scores)
    assert np.array_equal(diag["token_scores"], ref_diag["token_scores"])
    assert np.array_equal(diag["token_weights"], ref_diag["token_weights"])
    for name, g in grads.items():
        assert g is not None and np.array_equal(g, ref_grads[name]), name
    assert records <= ref_records - 60


def test_desk_training_step_records_at_most_70_tape_ops(tmp_path, monkeypatch):
    records = []
    backward = nm.GradTape.backward

    def counting(tape, loss):
        records.append(len(tape))
        return backward(tape, loss)

    monkeypatch.setattr(nm.GradTape, "backward", counting)
    manifest = read_manifest(generate_toy_dataset(tmp_path, n_images=16, size=32, seed=1))
    pl.train(manifest, pl.ModelConfig(variant="cl-iqa"), pl.TrainSettings(steps=1, val_every=0))
    assert len(records) == 1
    assert records[0] <= 70
