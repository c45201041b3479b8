import numpy as np
import pytest

from csiqa import head as hd
from csiqa import numerics as nm
from csiqa.errors import ContractError
from csiqa.sampling import BlockGrid


def col(values):
    return nm.Tensor(np.asarray(values, dtype=np.float64).reshape(-1, 1))


class TestAggregate:
    def test_uniform_weights_reproduce_mean(self, rng):
        s = rng.normal(size=7)
        out = hd.aggregate(col(s), col(np.full(7, 0.42)), eps=0.0)
        assert abs(out.item() - s.mean()) <= 1e-12

    def test_single_token_returns_its_score(self):
        out = hd.aggregate(col([3.25]), col([1.0]))
        assert abs(out.item() - 3.25) <= 1e-8 * 3.25

    def test_hand_computed_example(self):
        out = hd.aggregate(col([1.0, 3.0]), col([0.25, 0.75]), eps=0.0)
        assert out.item() == pytest.approx(2.5, abs=1e-15)

    def test_convexity(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 12))
            s = rng.normal(scale=5.0, size=n)
            w = rng.uniform(0.01, 1.0, size=n)
            v = hd.aggregate(col(s), col(w)).item()
            assert s.min() - 1e-6 <= v <= s.max() + 1e-6

    def test_weight_rescaling_invariance_at_zero_eps(self, rng):
        s, w = rng.normal(size=5), rng.uniform(0.1, 1.0, size=5)
        a = hd.aggregate(col(s), col(w), eps=0.0).item()
        b = hd.aggregate(col(s), col(17.0 * w), eps=0.0).item()
        assert abs(a - b) <= 1e-12

    def test_gradient_flows(self, rng):
        s = nm.Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        w = nm.Tensor(rng.uniform(0.2, 0.8, size=(4, 1)), requires_grad=True)
        with nm.GradTape() as tape:
            out = hd.aggregate(s, w)
        tape.backward(out)
        assert s.grad is not None and w.grad is not None


class TestScore:
    def test_outputs_and_weight_range(self, rng):
        params = nm.init_params(hd.head_shapes(8), rng, std=0.02)
        tokens = nm.Tensor(rng.normal(size=(6, 8)))
        pooled, s, w = hd.score(tokens, params)
        assert np.isfinite(pooled.item())
        assert s.shape == (6,) and w.shape == (6,)
        assert np.all((w > 0.0) & (w < 1.0))
        assert s.min() - 1e-6 <= pooled.item() <= s.max() + 1e-6

    def test_deterministic(self, rng):
        params = nm.init_params(hd.head_shapes(8), rng, std=0.02)
        tokens = nm.Tensor(rng.normal(size=(3, 8)))
        a = hd.score(tokens, params)[0].item()
        b = hd.score(tokens, params)[0].item()
        assert a == b

    def test_odd_embed_dim_rejected(self, rng):
        with pytest.raises(ContractError):
            hd.head_shapes(7)


class TestWeightMap:
    def test_constant_weights_normalize_to_half(self):
        out = hd.weight_map(np.full(6, 0.3), BlockGrid(2, 3, 4))
        assert np.array_equal(out, np.full((2, 3), 0.5))

    def test_min_max_on_two_cells(self):
        out = hd.weight_map(np.array([0.1, 0.9]), BlockGrid(1, 2, 4))
        assert np.array_equal(out, [[0.0, 1.0]])

    def test_output_in_unit_interval(self, rng):
        out = hd.weight_map(rng.normal(size=12), BlockGrid(3, 4, 4))
        assert out.shape == (3, 4)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ContractError):
            hd.weight_map(np.ones(5), BlockGrid(2, 3, 4))
