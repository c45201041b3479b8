import gc
import math

import numpy as np
import pytest

from csiqa import numerics as nm
from csiqa.errors import ContractError, NumericalDivergenceError, ShapeError
from csiqa.gridops import conv3x3, im2col3x3

from conftest import central_diff_grads, max_rel_err
from unfused import gelu, layer_norm, softmax, sum_all


class TestMatmul:
    def test_identity(self):
        x = nm.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = nm.matmul(nm.Tensor(np.eye(2)), x)
        assert out.shape == (2, 2)
        assert np.max(np.abs(out.data - x.data)) <= 1e-15

    def test_hand_checkable_1x1(self):
        out = nm.matmul(nm.Tensor([[1.0, 2.0]]), nm.Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch_names_both(self):
        with pytest.raises(ShapeError) as e:
            nm.matmul(nm.Tensor(np.ones((2, 3))), nm.Tensor(np.ones((4, 2))))
        assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)

    def test_gradient_vs_central_differences(self, rng):
        a = nm.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = nm.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        with nm.GradTape() as tape:
            loss = sum_all(nm.matmul(a, b))
        tape.backward(loss)
        fd = central_diff_grads(lambda: sum_all(nm.matmul(a, b)).item(), [a, b])
        assert max_rel_err(a.grad, fd[0]) <= 1e-6
        assert max_rel_err(b.grad, fd[1]) <= 1e-6

    def test_leading_axes_are_more_rows(self, rng):
        a = nm.Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        b = nm.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        readout = nm.Tensor(rng.normal(size=(2, 3, 4)))
        rows = (a.data.reshape(6, 5) @ b.data).reshape(2, 3, 4)
        assert np.max(np.abs(nm.matmul(a, b).data - rows)) <= 1e-12

        def fwd():
            return sum_all(nm.mul(nm.matmul(a, b), readout))

        with nm.GradTape() as tape:
            loss = fwd()
        tape.backward(loss)
        fd = central_diff_grads(lambda: fwd().item(), [a, b])
        assert max_rel_err(a.grad, fd[0]) <= 1e-6
        assert max_rel_err(b.grad, fd[1]) <= 1e-6

    def test_rank_one_operand_rejected(self):
        with pytest.raises(ShapeError):
            nm.matmul(nm.Tensor(np.ones(3)), nm.Tensor(np.ones((3, 2))))
        with pytest.raises(ShapeError):
            nm.matmul(nm.Tensor(np.ones((2, 3))), nm.Tensor(np.ones(3)))


# softmax, layer_norm, gelu and sum_all are the reference ops of
# tests/unfused.py, which no model path calls; the fused kernels' bitwise
# tests lean on them, so they keep their own checks here.
class TestSoftmax:
    def test_symmetry(self):
        out = softmax(nm.Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_large_inputs_no_overflow(self):
        out = softmax(nm.Tensor([1000.0, 1000.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_matches_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()
        out = softmax(nm.Tensor(x))
        assert np.max(np.abs(out.data - expected)) <= 1e-12

    def test_rows_sum_to_one(self, rng):
        for shape in [(7,), (3, 5), (2, 4, 6)]:
            x = rng.normal(scale=50.0, size=shape)
            out = softmax(nm.Tensor(x), axis=-1)
            sums = out.data.sum(axis=-1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            softmax(nm.Tensor([1.0, 2.0]), axis=5)


class TestLayerNorm:
    def test_constant_vector_maps_to_zero(self):
        x = nm.Tensor(np.full((4,), 3.7))
        out = layer_norm(x, nm.Tensor(np.ones(4)), nm.Tensor(np.zeros(4)), eps=1e-8)
        assert np.max(np.abs(out.data)) <= 1e-12

    def test_two_point_normalization(self):
        out = layer_norm(
            nm.Tensor([1.0, 3.0]), nm.Tensor([1.0, 1.0]), nm.Tensor([0.0, 0.0]), eps=0.0)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-15)

    def test_output_moments(self, rng):
        x = nm.Tensor(rng.normal(size=(24,)))
        out = layer_norm(x, nm.Tensor(np.ones(24)), nm.Tensor(np.zeros(24)))
        assert abs(out.data.mean()) <= 1e-12
        assert abs(out.data.var() - 1.0) <= 1e-6

    def test_bad_gain_shape(self):
        with pytest.raises(ShapeError):
            layer_norm(nm.Tensor(np.ones((2, 4))), nm.Tensor(np.ones(3)), nm.Tensor(np.zeros(4)))


class TestGelu:
    def test_zero(self):
        assert gelu(nm.Tensor([0.0])).data[0] == 0.0

    def test_asymptote(self):
        x = 25.0
        assert abs(gelu(nm.Tensor([x])).data[0] - x) <= 1e-12

    def test_matches_tanh_formula_at_one(self):
        u = math.sqrt(2.0 / math.pi) * (1.0 + 0.044715)
        expected = 0.5 * (1.0 + math.tanh(u))
        assert abs(gelu(nm.Tensor([1.0])).data[0] - expected) <= 1e-12


class TestBackward:
    def test_quadratic(self):
        w = nm.Tensor([1.0, 2.0], requires_grad=True)
        with nm.GradTape() as tape:
            loss = sum_all(nm.mul(w, w))
        tape.backward(loss)
        assert np.allclose(w.grad, [2.0, 4.0], atol=1e-15)

    def test_unused_parameter_has_zero_gradient(self):
        w = nm.Tensor([1.0], requires_grad=True)
        p = nm.Tensor([5.0], requires_grad=True)
        with nm.GradTape() as tape:
            loss = sum_all(nm.mul(w, w))
        tape.backward(loss)
        assert p.grad is None  # reads as zero

    def test_non_scalar_loss_rejected(self):
        w = nm.Tensor([1.0, 2.0], requires_grad=True)
        with nm.GradTape() as tape:
            out = nm.mul(w, w)
        with pytest.raises(ContractError):
            tape.backward(out)

    def test_replayed_tape_is_freed_without_the_cyclic_collector(self, rng):
        w = nm.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        gc.collect()
        gc.disable()
        try:
            with nm.GradTape() as tape:
                y = softmax(nm.matmul(w, w))
                loss = sum_all(nm.mul(y, y))
            tape.backward(loss)
            del tape, loss, y
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert w.grad is not None

    def test_tape_is_single_use(self):
        w = nm.Tensor([1.0, 2.0], requires_grad=True)
        with nm.GradTape() as tape:
            loss = sum_all(nm.mul(w, w))
        tape.backward(loss)
        with pytest.raises(ContractError):
            tape.backward(loss)
        assert np.array_equal(w.grad, [2.0, 4.0])

    def test_shared_first_gradient_is_not_added_into(self):
        # add hands one gradient array to both inputs; a's later gradient
        # (from the mul by a constant) must not leak into b's
        a = nm.Tensor([1.0], requires_grad=True)
        b = nm.Tensor([1.0], requires_grad=True)
        with nm.GradTape() as tape:
            tripled = nm.mul(a, nm.Tensor(3.0))
            loss = nm.add(sum_all(nm.add(a, b)), sum_all(tripled))
        tape.backward(loss)
        assert a.grad.tolist() == [4.0] and b.grad.tolist() == [1.0]

    def test_deterministic_bitwise(self, rng):
        data = rng.normal(size=(6, 6))

        def run():
            w = nm.Tensor(data, requires_grad=True)
            with nm.GradTape() as tape:
                y = nm.matmul(w, w)
                loss = sum_all(nm.mul(softmax(y), y))
            tape.backward(loss)
            return w.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_tape_replays_in_reverse_order_once(self):
        w = nm.Tensor([2.0], requires_grad=True)
        with nm.GradTape() as tape:
            a = nm.mul(w, w)
            b = nm.add(a, w)
            loss = sum_all(b)
        order = [id(rec[0]) for rec in tape._records]
        visited = []
        original = list(tape._records)
        tape._records = [
            (out, (lambda f, o: (lambda g: (visited.append(id(o)), f(g))))(fn, out))
            for out, fn in original
        ]
        tape.backward(loss)
        assert visited == list(reversed(order))
        assert len(visited) == len(order)


class TestStructuralOps:
    def test_gather_rows_with_padding(self):
        x = nm.Tensor(np.arange(6.0).reshape(3, 2))
        out = nm.gather_rows(x, np.array([2, -1, 0]))
        assert np.array_equal(out.data, [[4.0, 5.0], [0.0, 0.0], [0.0, 1.0]])

    def test_gather_rows_gradient_scatters(self):
        x = nm.Tensor(np.ones((3, 2)), requires_grad=True)
        with nm.GradTape() as tape:
            out = nm.gather_rows(x, np.array([0, 0, -1, 2]))
            loss = sum_all(out)
        tape.backward(loss)
        assert np.array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_permute_rows_then_inverse_restores_rows(self, rng):
        x = nm.Tensor(rng.normal(size=(6, 2)))
        order = rng.permutation(6)
        inverse = np.argsort(order)
        y = nm.permute_rows(x, order, inverse)
        assert np.array_equal(y.data, x.data[order])
        assert np.array_equal(nm.permute_rows(y, inverse, order).data, x.data)
        with pytest.raises(ShapeError):
            nm.permute_rows(x, order[:5], inverse[:5])

    def test_im2col3x3_matches_neighbour_loop(self, rng):
        batch, height, width, c = 2, 3, 4, 2
        x = rng.normal(size=(batch, height, width, c))
        out = im2col3x3(x.reshape(batch, -1, c), height, width)
        expected = np.zeros((batch, height, width, 3, 3, c))
        for n in range(batch):
            for r in range(height):
                for col in range(width):
                    for dr in range(3):
                        for dc in range(3):
                            rr, cc = r + dr - 1, col + dc - 1
                            if 0 <= rr < height and 0 <= cc < width:
                                expected[n, r, col, dr, dc] = x[n, rr, cc]
        assert np.array_equal(out, expected.reshape(-1, 9 * c))

    def test_concat_and_slice_roundtrip(self, rng):
        a = nm.Tensor(rng.normal(size=(3, 2)))
        b = nm.Tensor(rng.normal(size=(3, 4)))
        cat = nm.concat_cols([a, b])
        assert cat.shape == (3, 6)
        assert np.array_equal(nm.slice_cols(cat, 2, 6).data, b.data)

    def test_reshape_permute_inverse(self, rng):
        x = nm.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        with nm.GradTape() as tape:
            y = nm.permute(nm.reshape(x, (6, 4)), (1, 0))
            loss = sum_all(nm.mul(y, y))
        tape.backward(loss)
        assert np.allclose(x.grad, 2.0 * x.data, atol=1e-15)


@pytest.mark.parametrize("op_name", ["add", "sub", "mul", "div", "softmax", "layer_norm",
                                     "gelu", "relu", "sigmoid", "bmm", "affine", "gather",
                                     "permute_rows", "conv3x3", "attention",
                                     "residual_layer_norm", "affine_gelu"])
def test_gradients_match_finite_differences(op_name, rng):
    """Every differentiable primitive vs central differences on 3 random shapes."""
    structured = ("bmm", "affine", "gather", "permute_rows", "conv3x3", "attention",
                  "residual_layer_norm", "affine_gelu")
    shapes = [(3,), (2, 4), (3, 2, 2)] if op_name not in structured else [(0,)] * 3
    for trial in range(3):
        if op_name == "bmm":
            a = nm.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
            b = nm.Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
            params = [a, b]
            fwd = lambda: sum_all(nm.sigmoid(nm.bmm(a, b)))
        elif op_name == "affine":
            x = nm.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            w = nm.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
            bias = nm.Tensor(rng.normal(size=(5,)), requires_grad=True)
            params = [x, w, bias]
            fwd = lambda: sum_all(gelu(nm.affine(x, w, bias)))
        elif op_name == "gather":
            x = nm.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
            idx = np.array([4, -1, 2, 2, 0])
            params = [x]
            fwd = lambda: sum_all(nm.sigmoid(nm.gather_rows(x, idx)))
        elif op_name == "permute_rows":
            x = nm.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
            order = rng.permutation(5)
            inverse = np.argsort(order)
            params = [x]
            fwd = lambda: sum_all(nm.sigmoid(nm.permute_rows(x, order, inverse)))
        elif op_name == "conv3x3":
            x = nm.Tensor(rng.normal(size=(2, 3 * 4, 2)), requires_grad=True)
            w = nm.Tensor(rng.normal(size=(9 * 2, 3)), requires_grad=True)
            bias = nm.Tensor(rng.normal(size=(3,)), requires_grad=True)
            params = [x, w, bias]
            fwd = lambda: sum_all(nm.sigmoid(conv3x3(x, 3, 4, w, bias)))
        elif op_name == "attention":
            # two groups of three tokens, two heads of width 2
            params = [nm.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
                      for _ in range(3)]
            fwd = lambda: sum_all(nm.sigmoid(nm.attention(*params, 2, 2)))
        elif op_name == "residual_layer_norm":
            params = [nm.Tensor(rng.normal(size=s), requires_grad=True)
                      for s in ((3, 4), (3, 4), (4,), (4,))]
            fwd = lambda: sum_all(nm.sigmoid(nm.residual_layer_norm(*params)))
        elif op_name == "affine_gelu":
            params = [nm.Tensor(rng.normal(size=s), requires_grad=True)
                      for s in ((2, 2, 3), (3, 5), (5,))]
            fwd = lambda: sum_all(nm.sigmoid(nm.affine_gelu(*params)))
        else:
            shape = shapes[trial]
            x = nm.Tensor(rng.normal(size=shape), requires_grad=True)
            params = [x]
            if op_name in ("add", "sub", "mul", "div"):
                other = nm.Tensor(rng.normal(size=shape) + 3.0, requires_grad=True)
                params.append(other)
                op = getattr(nm, op_name)
                fwd = lambda: sum_all(nm.sigmoid(op(x, other)))
            elif op_name == "layer_norm":
                d = shape[-1]
                gain = nm.Tensor(rng.normal(size=(d,)), requires_grad=True)
                bias = nm.Tensor(rng.normal(size=(d,)), requires_grad=True)
                params += [gain, bias]
                fwd = lambda: sum_all(nm.sigmoid(layer_norm(x, gain, bias)))
            elif op_name == "softmax":
                fwd = lambda: sum_all(nm.mul(softmax(x, axis=-1), x))
            else:
                op = gelu if op_name == "gelu" else getattr(nm, op_name)
                fwd = lambda: sum_all(op(x))

        with nm.GradTape() as tape:
            loss = fwd()
        tape.backward(loss)
        fd = central_diff_grads(lambda: fwd().item(), params)
        for p, ref in zip(params, fd):
            assert max_rel_err(p.grad, ref) <= 1e-4


class TestAdam:
    @staticmethod
    def with_grad(values, grad):
        p = nm.Tensor(values, requires_grad=True)
        p.grad = None if grad is None else np.asarray(grad, dtype=np.float64)
        return p

    def test_zero_grad_leaves_parameters_unchanged(self):
        p = self.with_grad([1.0, -2.0], np.zeros(2))
        before = p.data.copy()
        state = nm.AdamState()
        nm.adam_step({"p": p}, state, lr=0.1)
        assert np.array_equal(p.data, before)

    def test_missing_grad_counts_as_zero(self):
        a = self.with_grad([10.0, -2.0], np.zeros(2))
        b = self.with_grad([10.0, -2.0], None)
        sa, sb = nm.AdamState(), nm.AdamState()
        for _ in range(3):
            nm.adam_step({"w": a}, sa, lr=0.1, weight_decay=0.5)
            nm.adam_step({"w": b}, sb, lr=0.1, weight_decay=0.5)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(sa.m["w"], sb.m["w"]) and np.array_equal(sa.v["w"], sb.v["w"])

    def test_moments_are_keyed_by_parameter_name(self):
        params = {"b": self.with_grad([1.0], [0.5]), "a": self.with_grad([1.0, 2.0], None)}
        state = nm.AdamState()
        nm.adam_step(params, state, lr=0.1)
        assert list(state.m) == list(state.v) == ["b", "a"]
        assert state.m["b"].tolist() == [(1 - 0.9) * 0.5] and state.m["a"].tolist() == [0.0, 0.0]

    def test_single_step_matches_hand_computation(self):
        g = 0.5
        p = self.with_grad([1.0], [g])
        state = nm.AdamState()
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        nm.adam_step({"p": p}, state, lr=lr)
        m = (1 - b1) * g
        v = (1 - b2) * g * g
        m_hat = m / (1 - b1)
        v_hat = v / (1 - b2)
        expected = 1.0 - lr * m_hat / (math.sqrt(v_hat) + eps)
        assert abs(p.data[0] - expected) <= 1e-12

    def test_identical_parameters_stay_identical(self, rng):
        a = nm.Tensor([0.3, -0.7], requires_grad=True)
        b = nm.Tensor([0.3, -0.7], requires_grad=True)
        sa, sb = nm.AdamState(), nm.AdamState()
        for _ in range(5):
            g = rng.normal(size=2)
            a.grad, b.grad = g.copy(), g.copy()
            nm.adam_step({"a": a}, sa, lr=0.05, weight_decay=0.01)
            nm.adam_step({"b": b}, sb, lr=0.05, weight_decay=0.01)
        assert np.array_equal(a.data, b.data)

    def test_moment_shape_mismatch_rejected(self):
        p = self.with_grad([1.0, 2.0], np.zeros(2))
        state = nm.AdamState()
        nm.adam_step({"p": p}, state, lr=0.1)
        q = self.with_grad([[1.0], [2.0]], np.zeros((2, 1)))
        with pytest.raises(ShapeError, match="parameter p"):
            nm.adam_step({"p": q}, state, lr=0.1)

    def test_coupled_weight_decay_shrinks_unused_parameter(self):
        p = self.with_grad([10.0], np.zeros(1))
        state = nm.AdamState()
        nm.adam_step({"p": p}, state, lr=0.1, weight_decay=0.5)
        assert p.data[0] < 10.0


class TestDescend:
    @staticmethod
    def square_loss(p):
        return lambda: nm.mean_all(nm.mul(p, p))

    def test_equals_one_tape_and_adam_step(self):
        a = nm.Tensor([0.3, -0.7], requires_grad=True)
        b = nm.Tensor([0.3, -0.7], requires_grad=True)
        b.grad = np.ones(2)  # stale, from an earlier tape: cleared first
        sa, sb = nm.AdamState(), nm.AdamState()
        with nm.GradTape() as tape:
            loss = self.square_loss(a)()
        tape.backward(loss)
        nm.adam_step({"b": a}, sa, 0.05, 0.01)
        value = nm.descend({"b": b}, self.square_loss(b), sb, 0.05, 0.01, "step 1")
        assert value == loss.item()
        assert np.array_equal(a.data, b.data) and sb.step == 1
        assert np.array_equal(sa.m["b"], sb.m["b"]) and np.array_equal(sa.v["b"], sb.v["b"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises_before_any_update(self):
        p = nm.Tensor([1e200, 2.0], requires_grad=True)
        state = nm.AdamState()
        with pytest.raises(NumericalDivergenceError, match="non-finite loss at step 7"):
            nm.descend({"p": p}, self.square_loss(p), state, 0.1, 0.0, "step 7")
        assert p.data.tolist() == [1e200, 2.0] and state.step == 0

    def test_check_finite_names_the_first_bad_parameter(self):
        params = {"a": nm.Tensor([1.0]), "b": nm.Tensor([np.inf]), "c": nm.Tensor([np.nan])}
        with pytest.raises(NumericalDivergenceError, match="parameter b is non-finite after epoch 3"):
            nm.check_finite(params, "epoch 3")
        nm.check_finite({"a": params["a"]}, "epoch 3")


class TestTensorBasics:
    def test_invariants(self):
        t = nm.Tensor(np.ones((2, 3)))
        assert t.size == 6 and t.shape == (2, 3)
        with pytest.raises(ShapeError):
            nm.Tensor(np.ones((0, 2)))

    def test_scalar_item(self):
        assert nm.Tensor(3.5).item() == 3.5
        with pytest.raises(ShapeError):
            nm.Tensor([1.0, 2.0]).item()

    def test_no_recording_outside_tape(self):
        w = nm.Tensor([1.0], requires_grad=True)
        out = nm.mul(w, w)
        assert not out.requires_grad and out._tape is None


def test_init_params_policy_and_order(rng):
    shapes = {"w": (3, 4), "ln.g": (4,), "ln.b": (4,), "alpha": (1,), "v": (2, 5)}
    params = nm.init_params(shapes, rng, std=0.5)
    assert [(n, t.shape) for n, t in params.items()] == list(shapes.items())
    assert all(t.requires_grad for t in params.values())
    for name in ("w", "v"):
        assert 0.0 < np.max(np.abs(params[name].data)) <= 1.0  # within two sigmas
    assert np.array_equal(params["ln.g"].data, np.ones(4))
    assert not params["ln.b"].data.any() and not params["alpha"].data.any()
    again = np.random.default_rng(np.random.SeedSequence(1))
    first = nm.trunc_normal(again, (3, 4), std=0.5)
    replay = nm.init_params(shapes, np.random.default_rng(np.random.SeedSequence(1)), std=0.5)
    assert np.array_equal(replay["w"].data, first)
    assert np.array_equal(replay["v"].data, nm.trunc_normal(again, (2, 5), std=0.5))
