import numpy as np
import pytest

from csiqa import embedding as em
from csiqa import numerics as nm
from csiqa import sampling as sp
from csiqa.errors import ContractError

from conftest import central_diff_grads, max_rel_err
from unfused import sum_all


def make_meas(values, block_size=4):
    values = np.asarray(values, dtype=np.float64)
    grid = sp.BlockGrid(1, values.shape[0], block_size)
    return sp.MeasurementSet(nm.Tensor(values), grid)


def embedding_matrix(embed_dim, rng, block_size=4):
    """A (d, B^2) embedding drawn as ``init_model`` draws it at gain 1."""
    side = block_size * block_size
    return nm.Tensor(rng.normal(scale=1.0 / block_size, size=(embed_dim, side)),
                     requires_grad=True)


class TestEmbed:
    def test_zero_measurements_map_to_zero(self, rng):
        e = embedding_matrix(8, rng)
        out = em.embed(e, make_meas(np.zeros((3, 8))))
        assert np.array_equal(out.data, np.zeros((3, 8)))

    def test_identity_at_full_ratio(self, rng):
        e = nm.Tensor(np.eye(16))
        y = rng.random((5, 16))
        out = em.embed(e, make_meas(y))
        assert np.array_equal(out.data, y)

    def test_matches_zero_padding_oracle(self, rng):
        e = embedding_matrix(6, rng)
        y = rng.random((4, 8))  # ratio 0.5 of a 16-wide block
        out = em.embed(e, make_meas(y))
        padded = np.concatenate([y, np.zeros((4, 8))], axis=1)
        oracle = padded @ e.data.T
        assert np.max(np.abs(out.data - oracle)) <= 1e-12

    def test_linearity(self, rng):
        e = embedding_matrix(6, rng)
        y1, y2 = rng.random((3, 8)), rng.random((3, 8))
        a, b = 2.5, -1.25
        lhs = em.embed(e, make_meas(a * y1 + b * y2)).data
        rhs = (a * em.embed(e, make_meas(y1)).data
               + b * em.embed(e, make_meas(y2)).data)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_overlong_measurements_rejected(self, rng):
        e = embedding_matrix(6, rng)
        with pytest.raises(ContractError):
            em.embed(e, make_meas(np.zeros((2, 17))))


class TestAddPosition:
    def test_zero_table_is_identity(self, rng):
        t = rng.random((8, 4))
        pos = nm.Tensor(np.zeros((8, 4)))
        assert np.array_equal(em.add_position(nm.Tensor(t), pos).data, t)

    def test_token_count_must_equal_table_rows(self):
        # each row is one cell of the trained grid: no prefix of the table is added
        pos = nm.Tensor(np.zeros((8, 4)))
        for n in (3, 5):
            with pytest.raises(ContractError) as e:
                em.add_position(nm.Tensor(np.zeros((n, 4))), pos)
            assert f"{n} tokens" in str(e.value) and "8 rows" in str(e.value)

    def test_additive_and_invertible(self, rng):
        table = rng.random((8, 4))
        tokens = rng.random((8, 4))
        pos = nm.Tensor(table)
        out = em.add_position(nm.Tensor(tokens), pos)
        assert np.max(np.abs((out.data - tokens) - table)) <= 1e-15

    def test_capacity_error_names_both(self):
        pos = nm.Tensor(np.zeros((2, 4)))
        with pytest.raises(ContractError) as e:
            em.add_position(nm.Tensor(np.zeros((5, 4))), pos)
        assert "5" in str(e.value) and "2" in str(e.value)


class TestBypass:
    def test_exact_width_passthrough(self, rng):
        y = rng.random((3, 8))
        out = em.bypass_embed(make_meas(y), 8)
        assert np.array_equal(out.data, y)

    def test_zero_padding(self):
        y = np.array([[1.0, 2.0, 3.0, 4.0]])
        out = em.bypass_embed(make_meas(y), 8)
        assert np.array_equal(out.data, [[1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]])

    def test_overflow_rejected(self):
        with pytest.raises(ContractError):
            em.bypass_embed(make_meas(np.zeros((2, 9))), 8)

    def test_gradient_matches_explicit_projection(self, rng):
        """Bypass must be gradient-equivalent to a fixed 0/1 projection matrix."""
        matrix = nm.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        img = rng.random((4, 4))
        d = 6
        proj = np.zeros((4, d))
        proj[:2, :2] = np.eye(2)  # ratio 0.5 of B=2 keeps 2 measurements

        def loss_bypass():
            tokens = em.bypass_embed(sp.sample(matrix, img, 0.5), d)
            return sum_all(nm.mul(tokens, tokens))

        def loss_projection():
            meas = sp.sample(matrix, img, 0.5)
            tokens = nm.matmul(meas.values, nm.Tensor(proj[:2]))
            return sum_all(nm.mul(tokens, tokens))

        with nm.GradTape() as tape:
            loss = loss_bypass()
        tape.backward(loss)
        g_bypass = matrix.grad.copy()

        matrix.zero_grad()
        with nm.GradTape() as tape:
            loss = loss_projection()
        tape.backward(loss)
        g_proj = matrix.grad.copy()

        fd = central_diff_grads(lambda: loss_bypass().item(), [matrix])
        assert max_rel_err(g_bypass, g_proj) <= 1e-12
        assert max_rel_err(g_bypass, fd[0]) <= 1e-6
