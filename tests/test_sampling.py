import numpy as np
import pytest

from csiqa import numerics as nm
from csiqa import sampling as sp
from csiqa.errors import ContractError, NumericalDivergenceError, ShapeError

from conftest import central_diff_grads, max_rel_err
from unfused import sum_all


def merge_blocks(blocks, grid):
    """Reference layout: the inverse of split_blocks over the padded image."""
    b = grid.block_size
    assert blocks.shape == (grid.num_blocks, b * b)
    return (
        blocks.reshape(grid.blocks_h, grid.blocks_w, b, b)
        .transpose(0, 2, 1, 3)
        .reshape(grid.padded_shape)
    )


def identity_matrix(block_size):
    side = block_size * block_size
    return nm.Tensor(np.eye(side), requires_grad=True)


class TestSplitBlocks:
    def test_single_block_is_row_major_flatten(self, rng):
        img = rng.random((4, 4))
        blocks, grid = sp.split_blocks(img, 4)
        assert grid.num_blocks == 1
        assert np.array_equal(blocks[0], img.reshape(-1))

    def test_round_trip_exact(self, rng):
        img = rng.random((8, 8))
        blocks, grid = sp.split_blocks(img, 4)
        assert grid.num_blocks == 4
        assert np.array_equal(merge_blocks(blocks, grid), img)

    def test_padding_round_trip(self, rng):
        img = rng.random((10, 10))
        blocks, grid = sp.split_blocks(img, 4)
        assert grid.padded_shape == (12, 12)
        assert grid.num_blocks == 9
        merged = merge_blocks(blocks, grid)
        assert np.array_equal(merged[:10, :10], img)

    def test_bad_block_size(self):
        with pytest.raises(ContractError):
            sp.split_blocks(np.zeros((4, 4)), 0)


class TestTruncate:
    def test_full_ratio_is_whole_matrix(self, rng):
        m = nm.Tensor(rng.random((16, 16)))
        img = rng.random((8, 8))
        blocks, _ = sp.split_blocks(img, 4)
        meas = sp.sample(m, img, 1.0)
        assert meas.measurement_length == 16
        assert np.max(np.abs(meas.values.data - blocks @ m.data.T)) <= 1e-12

    def test_quarter_ratio_shape(self, rng):
        m = nm.Tensor(rng.random((16, 16)))
        assert sp.sample(m, rng.random((8, 8)), 0.25).values.shape == (4, 4)

    def test_ceiling_rule(self):
        # ratio 0.1 of 256 rows -> ceil(25.6) = 26
        assert sp.measurement_count(16, 0.1) == 26
        assert sp.measurement_count(4, 0.25) == 4
        assert sp.measurement_count(10, 0.3) == 30  # float fuzz must not bump to 31
        assert sp.measurement_count(4, 0.001) == 1

    def test_ratio_bounds(self):
        with pytest.raises(ContractError):
            sp.measurement_count(4, 0.0)
        with pytest.raises(ContractError):
            sp.measurement_count(4, 1.5)


class TestSample:
    def test_identity_full_ratio_reproduces_blocks(self, rng):
        img = rng.random((8, 8))
        meas = sp.sample(identity_matrix(4), img, 1.0)
        blocks, _ = sp.split_blocks(img, 4)
        assert np.array_equal(meas.values.data, blocks)

    def test_truncated_identity_keeps_prefix(self, rng):
        img = rng.random((8, 8))
        meas = sp.sample(identity_matrix(4), img, 0.25)
        blocks, _ = sp.split_blocks(img, 4)
        assert np.array_equal(meas.values.data, blocks[:, :4])

    def test_matches_naive_per_block_loop(self, rng):
        m = nm.Tensor(rng.normal(size=(16, 16)))
        img = rng.random((8, 8))
        meas = sp.sample(m, img, 0.5)
        blocks, _ = sp.split_blocks(img, 4)
        rows = sp.measurement_count(4, 0.5)
        for i in range(blocks.shape[0]):
            expected = np.array(
                [sum(m.data[r, k] * blocks[i, k] for k in range(16)) for r in range(rows)])
            assert np.max(np.abs(meas.values.data[i] - expected)) <= 1e-12

    def test_nesting_is_exact(self, rng):
        m = nm.Tensor(rng.normal(size=(16, 16)))
        img = rng.random((12, 12))
        ratios = [0.1, 0.2, 0.5, 1.0]
        meas = {r: sp.sample(m, img, r).values.data for r in ratios}
        for lo, hi in zip(ratios, ratios[1:]):
            n = meas[lo].shape[1]
            assert np.array_equal(meas[lo], meas[hi][:, :n])

    def test_linearity(self, rng):
        m = nm.Tensor(rng.normal(size=(16, 16)))
        img1, img2 = rng.random((8, 8)), rng.random((8, 8))
        a, b = 1.7, -0.4
        lhs = sp.sample(m, a * img1 + b * img2, 0.5).values.data
        rhs = a * sp.sample(m, img1, 0.5).values.data + b * sp.sample(m, img2, 0.5).values.data
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_data_usage_accounting(self, rng):
        m = nm.Tensor(rng.normal(size=(16, 16)))
        img = rng.random((20, 20))
        ratio = 0.5
        meas = sp.sample(m, img, ratio)
        padded_pixels = np.prod(meas.grid.padded_shape)
        assert meas.total_scalars == meas.grid.num_blocks * sp.measurement_count(4, ratio)
        slack = meas.grid.num_blocks  # one ceiling row per block at most
        assert abs(meas.total_scalars - ratio * padded_pixels) <= slack

    def test_gradient_flows_to_matrix(self, rng):
        m = nm.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        img = rng.random((4, 4))

        def loss_fn():
            meas = sp.sample(m, img, 0.5)
            return sum_all(nm.mul(meas.values, meas.values))

        with nm.GradTape() as tape:
            loss = loss_fn()
        tape.backward(loss)
        fd = central_diff_grads(lambda: loss_fn().item(), [m])
        assert max_rel_err(m.grad, fd[0]) <= 1e-6
        # rows beyond the truncation get exactly zero gradient
        assert np.array_equal(m.grad[2:], np.zeros((2, 4)))


    @pytest.mark.parametrize("route", [sp.sample, sp.sample_conv])
    @pytest.mark.parametrize("shape", [(15, 15), (16, 8)])
    def test_matrix_must_be_block_square(self, rng, route, shape):
        with pytest.raises(ShapeError) as e:
            route(nm.Tensor(rng.normal(size=shape)), rng.random((8, 8)), 0.5)
        assert f"B^2 x B^2 for some B, got {shape}" in str(e.value)


class TestSampleConv:
    def test_equivalence_with_matrix_route(self, rng):
        for _ in range(20):
            b = int(rng.integers(2, 6))
            m = nm.Tensor(rng.normal(size=(b * b, b * b)))
            h, w = rng.integers(b, 4 * b, size=2)
            img = rng.random((int(h), int(w)))
            ratio = float(rng.uniform(0.05, 1.0))
            a = sp.sample(m, img, ratio).values.data
            c = sp.sample_conv(m, img, ratio).values.data
            assert np.max(np.abs(a - c)) <= 1e-12

    def test_averaging_kernel(self, rng):
        b = 4
        mat = np.zeros((16, 16))
        mat[0, :] = 1.0 / 16.0
        m = nm.Tensor(mat)
        img = rng.random((8, 8))
        meas = sp.sample_conv(m, img, 1.0 / 16.0)  # exactly one row kept
        blocks, _ = sp.split_blocks(img, b)
        assert np.allclose(meas.values.data[:, 0], blocks.mean(axis=1), atol=1e-12)

    def test_identity_reproduces_blocks(self, rng):
        img = rng.random((8, 8))
        meas = sp.sample_conv(identity_matrix(4), img, 1.0)
        blocks, _ = sp.split_blocks(img, 4)
        assert np.max(np.abs(meas.values.data - blocks)) <= 1e-12


class TestReconstructor:
    def test_zero_measurements_give_bias_image(self, rng):
        rec = sp.init_reconstructor(4, 0.25, rng, width=8)
        bias = rng.normal(size=16)
        rec.params["init.b"] = nm.Tensor(bias, requires_grad=True)
        grid = sp.BlockGrid(2, 2, 4)
        meas = sp.MeasurementSet(nm.Tensor(np.zeros((4, 4))), grid)
        out = sp.csnet_reconstruct(rec, meas)
        expected = merge_blocks(np.tile(bias, (4, 1)), grid)
        assert np.max(np.abs(out.data - expected)) <= 1e-12

    def test_blocks_land_in_merge_blocks_layout(self, rng):
        # the last refiner layer starts at zero, so a fresh reconstructor
        # returns its per-block linear expansion laid out as an image
        rec = sp.init_reconstructor(4, 0.25, rng, width=4)
        grid = sp.BlockGrid(2, 3, 4)
        values = rng.normal(size=(6, 4))
        out = sp.csnet_reconstruct(rec, sp.MeasurementSet(nm.Tensor(values), grid))
        blocks = values @ rec.params["init.w"].data + rec.params["init.b"].data
        assert out.shape == (1, *grid.padded_shape)
        assert np.array_equal(out.data[0], merge_blocks(blocks, grid))

    def test_batch_reconstructs_each_image(self, rng):
        rec = sp.init_reconstructor(4, 0.25, rng, width=4)
        rec.params["conv3.w"] = nm.Tensor(rng.normal(size=(36, 1)), requires_grad=True)
        matrix = sp.random_sampling_matrix(4, rng)
        for shape in ((2, 8, 12), (1, 8, 8), (3, 12, 4)):
            imgs = rng.random(shape)
            stack = sp.csnet_reconstruct(rec, sp.sample(matrix, imgs, 0.25)).data
            assert stack.shape == shape
            for img, out in zip(imgs, stack):
                single = sp.csnet_reconstruct(rec, sp.sample(matrix, img, 0.25)).data
                assert single.shape == (1, *shape[1:])
                assert np.max(np.abs(out - single[0])) <= 1e-12

    def test_identity_configuration_is_lossless(self, rng):
        b = 4
        rec = sp.init_reconstructor(b, 1.0, rng, width=8)
        rec.params["init.w"] = nm.Tensor(np.eye(16), requires_grad=True)
        rec.params["init.b"] = nm.Tensor(np.zeros(16), requires_grad=True)
        img = rng.random((8, 8))
        meas = sp.sample(identity_matrix(b), img, 1.0)
        out = sp.csnet_reconstruct(rec, meas)
        assert np.max(np.abs(out.data - img)) <= 1e-6

    def test_ratio_mismatch_rejected(self, rng):
        rec = sp.init_reconstructor(4, 0.25, rng)
        meas = sp.MeasurementSet(nm.Tensor(np.zeros((4, 8))), sp.BlockGrid(2, 2, 4))
        with pytest.raises(ContractError):
            sp.csnet_reconstruct(rec, meas)


class TestPretrain:
    def test_single_image_converges(self, rng):
        img = rng.random((12, 12))
        matrix, rec, losses = sp.pretrain_csm([img], 0.25, epochs=200, lr=1e-2,
                                              block_size=4, width=8, seed=3)
        smoothed = np.convolve(losses, np.ones(20) / 20, mode="valid")
        assert np.all(np.diff(smoothed) <= 1e-5)
        assert losses[-1] < losses[0] / 10.0
        assert sp.reconstruction_mse(matrix, rec, [img], 0.25) < losses[0] / 10.0

    def test_zero_learning_rate_is_identity(self, rng):
        img = rng.random((8, 8))
        matrix, rec, _ = sp.pretrain_csm([img], 0.5, epochs=3, lr=0.0,
                                         block_size=4, width=4, seed=5)
        fresh_rng = np.random.default_rng(np.random.SeedSequence([5, 11, 0]))
        fresh = sp.random_sampling_matrix(4, fresh_rng)
        assert np.array_equal(matrix.data, fresh.data)

    def test_constant_corpus_reaches_tiny_error(self, rng):
        corpus = [np.full((8, 8), 0.25), np.full((8, 8), 0.75)]
        matrix, rec, losses = sp.pretrain_csm(corpus, 0.25, epochs=250, lr=1e-2,
                                              block_size=4, width=4, seed=1)
        assert sp.reconstruction_mse(matrix, rec, corpus, 0.25) < 1e-3

    def test_matrix_of_another_block_size_rejected(self, rng):
        with pytest.raises(ContractError, match="block size 2, requested 4"):
            sp.pretrain_csm([rng.random((8, 8))], 0.25, epochs=1, lr=1e-3, block_size=4,
                            width=4, matrix=sp.random_sampling_matrix(2, rng))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            sp.pretrain_csm([], 0.5, epochs=1, lr=1e-3)

    def test_empty_corpus_has_no_reconstruction_mse(self, rng):
        matrix = sp.random_sampling_matrix(4, rng)
        rec = sp.init_reconstructor(4, 0.25, rng, width=4)
        with pytest.raises(ContractError, match="empty"):
            sp.reconstruction_mse(matrix, rec, [], 0.25)


def reference_pretrain(corpus, ratio, epochs, lr, block_size, width, seed):
    """Pretraining as one image at a time: the loss adds each image's mean
    squared error in corpus order, then scales by 1/len(corpus)."""
    matrix_rng = np.random.default_rng(np.random.SeedSequence([seed, 11, 0]))
    recon_rng = np.random.default_rng(np.random.SeedSequence([seed, 11, 1]))
    matrix = sp.random_sampling_matrix(block_size, matrix_rng)
    rec = sp.init_reconstructor(block_size, ratio, recon_rng, width=width)
    params = {"csm.phi": matrix, **{f"csnet.{n}": t for n, t in rec.params.items()}}
    state = nm.AdamState()
    losses = []
    for _ in range(epochs):
        for t in params.values():
            t.zero_grad()
        with nm.GradTape() as tape:
            total = nm.Tensor(0.0)
            for im in corpus:
                target = sp.pad_to_blocks(im, block_size)
                recon = sp.csnet_reconstruct(rec, sp.sample(matrix, im, ratio))
                diff = nm.sub(recon, nm.Tensor(target))
                total = nm.add(total, nm.mean_all(nm.mul(diff, diff)))
            loss = nm.mul(total, nm.Tensor(1.0 / len(corpus)))
        losses.append(loss.item())
        tape.backward(loss)
        nm.adam_step(params, state, lr=lr)
    return matrix, rec, losses


def reference_reconstruction_mse(matrix, rec, corpus, ratio):
    total = 0.0
    for im in corpus:
        target = sp.pad_to_blocks(im, rec.block_size)
        recon = sp.csnet_reconstruct(rec, sp.sample(matrix, im, ratio))
        total += float(np.mean((recon.data - target) ** 2))
    return total / len(corpus)


# more than 8 images: numpy sums 8 or more values pairwise, not in order
def same_size_corpus(rng):
    return [rng.random((12, 12)) for _ in range(9)]


def mixed_size_corpus(rng):
    return [rng.random((8, 8) if i % 2 == 0 else (12, 12)) for i in range(10)]


class TestBatchedPretrain:
    """The batched epoch against the per-image loop it replaced."""

    @pytest.mark.parametrize("make_corpus", [same_size_corpus, mixed_size_corpus])
    def test_matches_per_image_loop(self, make_corpus, rng):
        corpus = make_corpus(rng)
        args = dict(ratio=0.25, epochs=5, lr=1e-2, block_size=4, width=4, seed=7)
        m_new, rec_new, new = sp.pretrain_csm(corpus, **args)
        m_ref, rec_ref, ref = reference_pretrain(corpus, **args)
        # the first epoch's forward is the same arithmetic, image by image
        assert new[0] == ref[0]
        # batching regroups the sums of shared-weight gradients, so later
        # epochs may differ in the last bits
        assert max_rel_err(new, ref, floor=1e-300) <= 1e-12
        assert max_rel_err(m_new.data, m_ref.data, floor=1e-300) <= 1e-12
        for name in rec_ref.params:
            assert max_rel_err(rec_new.params[name].data, rec_ref.params[name].data,
                               floor=1e-300) <= 1e-12, name
        assert (sp.reconstruction_mse(m_new, rec_new, corpus, 0.25)
                == reference_reconstruction_mse(m_new, rec_new, corpus, 0.25))

    def test_one_epoch_is_one_short_tape(self, rng, monkeypatch):
        lengths = []
        replay = nm.GradTape.backward

        def counting(tape, loss):
            lengths.append(len(tape))
            return replay(tape, loss)

        monkeypatch.setattr(nm.GradTape, "backward", counting)
        corpus = [rng.random((24, 24)) for _ in range(8)]
        sp.pretrain_csm(corpus, 0.25, epochs=1, lr=3e-3, block_size=4, width=16, seed=2)
        assert len(lengths) == 1 and lengths[0] <= 25

    @pytest.mark.parametrize("lr", [float("nan"), 1e300])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises_naming_the_epoch(self, lr, rng):
        corpus = [rng.random((8, 8)) for _ in range(2)]
        with pytest.raises(NumericalDivergenceError, match="epoch 2"):
            sp.pretrain_csm(corpus, 0.25, epochs=4, lr=lr, block_size=4, width=4)

    def test_non_finite_last_update_raises(self, rng):
        # no loss is computed after the last update, so its parameters are checked
        corpus = [rng.random((8, 8)) for _ in range(2)]
        with pytest.raises(NumericalDivergenceError, match="parameter csm.phi .* epoch 1"):
            sp.pretrain_csm(corpus, 0.25, epochs=1, lr=float("nan"), block_size=4, width=4)

    def test_negative_epochs_rejected(self, rng):
        with pytest.raises(ContractError, match="epochs"):
            sp.pretrain_csm([rng.random((8, 8))], 0.25, epochs=-1, lr=1e-3, width=4)

    def test_negative_lr_rejected(self, rng):
        with pytest.raises(ContractError, match="lr"):
            sp.pretrain_csm([rng.random((8, 8))], 0.25, epochs=1, lr=-1.0, width=4)

    # The matrix trains exactly when it requires grad. A stale .grad it
    # arrives with is never added into an update: a trained matrix is
    # cleared before each step, a frozen one is not a parameter.
    @pytest.mark.parametrize("flag", [False, True])
    @pytest.mark.parametrize("stale_grad", [False, True])
    def test_matrix_flag_left_as_passed(self, flag, stale_grad, rng):
        matrix = sp.random_sampling_matrix(4, rng)
        matrix.requires_grad = flag
        before = matrix.data.copy()
        if stale_grad:
            matrix.grad = np.full(matrix.shape, 1e3)
        corpus = [rng.random((8, 8))]
        sp.pretrain_csm(corpus, 0.25, epochs=1, lr=1e-3, width=4, matrix=matrix)
        assert matrix.requires_grad is flag
        assert (not np.array_equal(matrix.data, before)) is flag
        clean = nm.Tensor(before.copy(), requires_grad=flag)
        sp.pretrain_csm(corpus, 0.25, epochs=1, lr=1e-3, width=4, matrix=clean)
        assert np.array_equal(matrix.data, clean.data)

    @pytest.mark.parametrize("flag", [False, True])
    @pytest.mark.parametrize("stale_grad", [False, True])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matrix_flag_left_as_passed_on_divergence(self, flag, stale_grad, rng):
        matrix = sp.random_sampling_matrix(4, rng)
        matrix.requires_grad = flag
        before = matrix.data.copy()
        if stale_grad:
            matrix.grad = np.full(matrix.shape, 1e3)
        corpus = [rng.random((8, 8)) for _ in range(2)]
        with pytest.raises(NumericalDivergenceError, match="epoch 2"):
            sp.pretrain_csm(corpus, 0.25, epochs=4, lr=float("nan"), width=4, matrix=matrix)
        assert matrix.requires_grad is flag
        # a NaN step sets every trained entry to NaN; a frozen matrix keeps its data
        assert np.isnan(matrix.data).all() if flag else np.array_equal(matrix.data, before)

    def test_non_positive_width_rejected(self, rng):
        with pytest.raises(ContractError, match="width"):
            sp.pretrain_csm([rng.random((8, 8))], 0.25, epochs=1, lr=1e-3, width=-3)
