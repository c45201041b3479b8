import math

import numpy as np
import pytest

from csiqa import encoder as enc
from csiqa import numerics as nm
from csiqa.errors import ContractError
from csiqa.sampling import BlockGrid

from conftest import central_diff_grads, max_rel_err
from unfused import sum_all


def arrs(params):
    return {k: v.data for k, v in params.items()}


def naive_softmax_rows(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def naive_layer_norm(x, g, b, eps=1e-8):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def naive_msa(x, p, heads):
    n, d = x.shape
    dh = d // heads
    q = x @ p["attn.wq"] + p["attn.qb"]
    k = x @ p["attn.wk"]
    v = x @ p["attn.wv"] + p["attn.vb"]
    outs = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
        outs.append(naive_softmax_rows(scores) @ v[:, sl])
    return np.concatenate(outs, axis=1) @ p["attn.wo"] + p["attn.ob"]


def naive_block(x, p, heads):
    x1 = naive_layer_norm(x + naive_msa(x, p, heads), p["ln1.g"], p["ln1.b"])
    hidden = x1 @ p["ff.w1"] + p["ff.b1"]
    t = np.tanh(math.sqrt(2 / math.pi) * (hidden + 0.044715 * hidden**3))
    ff = (0.5 * hidden * (1 + t)) @ p["ff.w2"] + p["ff.b2"]
    return naive_layer_norm(x1 + ff, p["ln2.g"], p["ln2.b"])


class TestMsa:
    def test_single_token_degenerate_attention(self, rng):
        d, heads = 8, 2
        p = nm.init_params(enc.block_shapes(d), rng, std=0.02)
        x = rng.normal(size=(1, d))
        out = enc.msa(nm.Tensor(x), p, heads)
        # one key => softmax weight 1 => value/output projection path only
        pa = arrs(p)
        v = x @ pa["attn.wv"] + pa["attn.vb"]
        expected = v @ pa["attn.wo"] + pa["attn.ob"]
        assert np.max(np.abs(out.data - expected)) <= 1e-12

    def test_matches_naive_per_head_loop(self, rng):
        d, heads = 12, 3
        p = nm.init_params(enc.block_shapes(d), rng, std=0.02)
        x = rng.normal(size=(5, d))
        out = enc.msa(nm.Tensor(x), p, heads)
        assert np.max(np.abs(out.data - naive_msa(x, arrs(p), heads))) <= 1e-12

    def test_attention_rows_sum_to_one(self, rng):
        d, heads = 8, 4
        p = nm.init_params(enc.block_shapes(d), rng, std=0.02)
        x = rng.normal(size=(6, d))
        _, w = enc.msa(nm.Tensor(x), p, heads, return_weights=True)
        assert w.shape == (heads, 6, 6)
        assert np.max(np.abs(w.sum(axis=-1) - 1.0)) <= 1e-12


class TestEncoderBlock:
    def test_matches_naive_reimplementation(self, rng):
        d, heads = 8, 2
        p = nm.init_params(enc.block_shapes(d), rng, std=0.02)
        x = rng.normal(size=(4, d))
        out = enc.encoder_block(nm.Tensor(x), p, heads)
        assert np.max(np.abs(out.data - naive_block(x, arrs(p), heads))) <= 1e-12

    def test_permutation_equivariance(self, rng):
        d, heads = 8, 2
        p = nm.init_params(enc.block_shapes(d), rng, std=0.02)
        x = rng.normal(size=(6, d))
        perm = rng.permutation(6)
        out = enc.encoder_block(nm.Tensor(x), p, heads).data
        out_perm = enc.encoder_block(nm.Tensor(x[perm]), p, heads).data
        assert np.max(np.abs(out_perm - out[perm])) <= 1e-12

    def test_post_norm_output_moments(self, rng):
        d, heads = 16, 4
        p = nm.init_params(enc.block_shapes(d), rng, std=0.02)  # unit gains, zero biases
        x = rng.normal(size=(10, d))
        out = enc.encoder_block(nm.Tensor(x), p, heads).data
        assert np.max(np.abs(out.mean(axis=-1))) <= 1e-10
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) <= 1e-6

    def test_head_mismatch_rejected(self, rng):
        # numerics.attention checks the split for both; its ShapeError is a ContractError
        p = nm.init_params(enc.block_shapes(8), rng, std=0.02)
        x = nm.Tensor(np.zeros((4, 8)))
        with pytest.raises(ContractError, match="3 heads"):
            enc.msa(x, p, 3)
        with pytest.raises(ContractError, match="3 heads"):
            enc.window_msa(x, BlockGrid(2, 2, 1), p, 3, window=2)


class TestEncode:
    def test_depth_zero_is_identity(self, rng):
        x = rng.normal(size=(3, 8))
        out = enc.encode(nm.Tensor(x), enc.ParamGroup({}), 0, 2)
        assert np.array_equal(out.data, x)

    def test_two_blocks_compose(self, rng):
        params = nm.init_params(enc.encoder_shapes(2, 8), rng, std=0.02)
        x = nm.Tensor(rng.normal(size=(4, 8)))
        root = enc.ParamGroup(params)
        stacked = enc.encode(x, root, 2, 2).data
        step1 = enc.encoder_block(x, root.group("block0"), 2)
        step2 = enc.encoder_block(step1, root.group("block1"), 2)
        assert np.array_equal(stacked, step2.data)

    def test_gradient_vs_finite_differences(self, rng):
        params = nm.init_params(enc.encoder_shapes(2, 8), rng, std=0.3)
        x0 = nm.Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        # random readout so the norm symmetries cannot cancel the loss
        readout = nm.Tensor(rng.normal(size=(4, 8)))

        def fwd():
            return sum_all(nm.mul(enc.encode(x0, enc.ParamGroup(params), 2, 2), readout))

        with nm.GradTape() as tape:
            loss = fwd()
        tape.backward(loss)
        checked = [x0, params["block0.attn.wq"], params["block1.ff.w1"]]
        fd = central_diff_grads(lambda: fwd().item(), checked)
        for t, ref in zip(checked, fd):
            assert max_rel_err(t.grad, ref) <= 1e-4


class TestWindowAttention:
    def test_full_grid_window_equals_global_msa(self, rng):
        d, heads = 8, 2
        grid = BlockGrid(4, 4, 1)
        p = nm.init_params(enc.block_shapes(d), rng, std=0.02)
        x = nm.Tensor(rng.normal(size=(16, d)))
        global_out = enc.msa(x, p, heads).data
        window_out = enc.window_msa(x, grid, p, heads, window=4, shift=0).data
        assert np.max(np.abs(window_out - global_out)) <= 1e-10
        shifted = enc.window_msa(x, grid, p, heads, window=4, shift=2).data
        assert np.max(np.abs(shifted - global_out)) <= 1e-10

    def test_window_rows_sum_to_one(self, rng):
        d, heads = 8, 2
        grid = BlockGrid(4, 4, 1)
        p = nm.init_params(enc.block_shapes(d), rng, std=0.02)
        x = nm.Tensor(rng.normal(size=(16, d)))
        _, w = enc.window_msa(x, grid, p, heads, window=2, shift=1, return_weights=True)
        assert w.shape == (4, heads, 4, 4)
        assert np.max(np.abs(w.sum(axis=-1) - 1.0)) <= 1e-12

    def test_windows_are_local(self, rng):
        """Tokens in different windows must not influence each other."""
        d, heads = 4, 1
        grid = BlockGrid(2, 4, 1)
        p = nm.init_params(enc.block_shapes(d), rng, std=0.02)
        x = rng.normal(size=(8, d))
        out = enc.window_msa(nm.Tensor(x), grid, p, heads, window=2, shift=0).data
        bumped = x.copy()
        bumped[7] += 10.0  # lives in the right-hand 2x2 window
        out2 = enc.window_msa(nm.Tensor(bumped), grid, p, heads, window=2, shift=0).data
        # left window tokens: grid columns 0..1 -> token ids 0,1,4,5
        for tid in (0, 1, 4, 5):
            assert np.array_equal(out[tid], out2[tid])
        assert not np.allclose(out[7], out2[7])

    def test_grid_not_divisible_rejected(self, rng):
        p = nm.init_params(enc.block_shapes(4), rng, std=0.02)
        with pytest.raises(ContractError):
            enc.window_msa(nm.Tensor(np.zeros((6, 4))), BlockGrid(2, 3, 1), p, 1, window=2)


class TestWindowRefine:
    def test_zero_scale_leaves_attention_output(self, rng):
        d, heads = 4, 2
        grid = BlockGrid(2, 2, 1)
        params = nm.init_params(enc.refiner_shapes(d), rng, std=0.02)
        params["conv.w"].data[...] = 0.0
        params["conv.b"].data[...] = 0.0
        x = nm.Tensor(rng.normal(size=(4, d)))
        root = enc.ParamGroup(params)
        out = enc.window_refine(x, grid, root, heads, 2).data
        t = enc.window_block(x, grid, root.group("stl0"), heads, 2, 0)
        t = enc.window_block(t, grid, root.group("stl1"), heads, 2, 1)
        assert np.array_equal(out, t.data)

    def test_matches_independent_step_by_step_evaluation(self, rng):
        d, heads = 2, 1
        grid = BlockGrid(2, 2, 1)
        params = nm.init_params(enc.refiner_shapes(d), rng, std=0.02)
        x = rng.normal(size=(4, d))
        out = enc.window_refine(nm.Tensor(x), grid, enc.ParamGroup(params), heads, 2).data

        pa = arrs(params)
        # both layers see the whole 2x2 grid as one window; the shifted
        # layer is a cyclic roll, which for a full-grid window is a pure
        # permutation that the unroll undoes
        p0 = {k[len("stl0."):]: v for k, v in pa.items() if k.startswith("stl0.")}
        p1 = {k[len("stl1."):]: v for k, v in pa.items() if k.startswith("stl1.")}
        t = naive_block(x, p0, heads)
        perm = [3, 2, 1, 0]  # roll(-1,-1) of [[0,1],[2,3]] flattened
        t_shifted = naive_block(t[perm], p1, heads)
        t2 = np.empty_like(t_shifted)
        t2[perm] = t_shifted
        # direct 3x3 convolution over the 2x2 token grid with zero padding
        tokens = t2.reshape(2, 2, d)
        conv = np.zeros((2, 2, d))
        w3 = pa["conv.w"].reshape(3, 3, d, d)
        for r in range(2):
            for c in range(2):
                acc = pa["conv.b"].copy()
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, c + dc
                        if 0 <= rr < 2 and 0 <= cc < 2:
                            acc = acc + tokens[rr, cc] @ w3[dr + 1, dc + 1]
                conv[r, c] = acc
        expected = enc.CONV_SCALE * conv.reshape(4, d) + t2
        assert np.max(np.abs(out - expected)) <= 1e-10

    def test_gradient_vs_finite_differences(self, rng):
        d, heads = 4, 2
        grid = BlockGrid(2, 2, 1)
        params = nm.init_params(enc.refiner_shapes(d), rng, std=0.3)
        x = rng.normal(size=(4, d))
        readout = nm.Tensor(rng.normal(size=(4, d)))
        checked = [params["stl0.attn.wq"], params["conv.w"], params["conv.b"]]

        def fwd():
            out = enc.window_refine(nm.Tensor(x), grid, enc.ParamGroup(params), heads, 2)
            return sum_all(nm.mul(out, readout))

        with nm.GradTape() as tape:
            loss = fwd()
        tape.backward(loss)
        fd = central_diff_grads(lambda: fwd().item(), checked)
        for t, ref in zip(checked, fd):
            assert max_rel_err(t.grad, ref) <= 1e-4
