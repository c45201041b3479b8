import json
import platform
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from csiqa import numerics as nm
from csiqa import pipeline as pl
from csiqa.checkpoint import array_to_bytes, read_checkpoint, write_checkpoint
from csiqa.data import generate_toy_dataset, pad_to_size, random_crop, read_manifest
from csiqa.embedding import add_position
from csiqa.encoder import encode, window_refine
from csiqa.errors import (
    CheckpointFormatError,
    ContractError,
    NumericalDivergenceError,
    ShapeError,
)
from csiqa.head import score as head_score
from csiqa.sampling import init_reconstructor, random_sampling_matrix, split_blocks

from conftest import (
    SCIPY_MODULES,
    central_diff_grads,
    max_rel_err,
    run_fresh,
    traced_peak,
    write_geometry_only_checkpoint,
    write_learnable_scale_checkpoint,
)

try:
    import resource
except ImportError:  # not a Unix platform
    resource = None


TINY = dict(block_size=4, embed_dim=16, depth=1, heads=4, window=2, crop_size=8)


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    manifest = generate_toy_dataset(root, n_images=12, size=12, seed=5)
    return read_manifest(manifest)


class TestForward:
    def test_finite_and_deterministic(self, rng):
        cfg = pl.ModelConfig(**TINY, seed=3)
        state = pl.init_model(cfg)
        img = np.full((8, 8), 0.5)
        s1, diag = pl.forward(img, state, 0.1)
        s2, _ = pl.forward(img, state, 0.1)
        assert np.isfinite(s1.item())
        assert s1.item() == s2.item()
        assert diag["grid"].num_blocks == 4
        assert diag["measurements_per_block"] == 2

    def test_embedding_rows_must_match_token_width(self):
        state = pl.init_model(pl.ModelConfig(**TINY))
        state.params["aem.embed"] = nm.Tensor(np.zeros((8, 16)), requires_grad=True)
        with pytest.raises(ShapeError):
            pl.forward(np.zeros((8, 8)), state, 0.25)

    def test_identity_configuration_matches_raw_block_pipeline(self, rng):
        # full ratio, identity sampling and embedding: the model must equal
        # the same encoder/head applied directly to raw flattened blocks
        cfg = pl.ModelConfig(**TINY, seed=1)
        state = pl.init_model(cfg)
        state.params["csm.phi"].data[...] = np.eye(16)
        state.params["aem.embed"].data[...] = np.eye(16)
        img = rng.random((8, 8))
        via_model, _ = pl.forward(img, state, 1.0)

        blocks, grid = split_blocks(img, 4)
        x = add_position(nm.Tensor(blocks), state.params["aem.pos"])
        x = encode(x, state.group("enc"), cfg.depth, cfg.heads)
        x = window_refine(x, grid, state.group("refine0"), cfg.heads, cfg.window)
        direct, _, _ = head_score(x, state.group("head"))
        assert abs(via_model.item() - direct.item()) <= 1e-12

    def test_cs_iqa_bypass_width_guard(self):
        # config-level: a training ratio whose measurements exceed the width
        with pytest.raises(ContractError):
            pl.ModelConfig(variant="cs-iqa", block_size=8, embed_dim=16,
                           depth=1, heads=4, window=2, crop_size=16,
                           ratio_mode="fixed", ratio=1.0)
        # forward-level: a valid model, but an evaluation-time ratio override
        # that does not fit the bypass width
        cfg = pl.ModelConfig(variant="cs-iqa", block_size=8, embed_dim=32,
                             depth=1, heads=4, window=2, crop_size=16,
                             ratio_mode="fixed", ratio=0.25, seed=0)
        state = pl.init_model(cfg)
        with pytest.raises(ContractError, match="bypass"):
            pl.forward(np.zeros((16, 16)), state, 1.0)

    def test_arbitrary_mode_needs_explicit_ratio(self):
        cfg = pl.ModelConfig(**TINY, ratio_mode="arbitrary", seed=0)
        state = pl.init_model(cfg)
        with pytest.raises(ContractError):
            pl.forward(np.zeros((8, 8)), state)

    def test_gradient_vs_finite_differences_subset(self, rng):
        cfg = pl.ModelConfig(**{**TINY, "depth": 2}, init_std=0.2, seed=2)
        state = pl.init_model(cfg)
        img = rng.random((8, 8))
        target = 0.7

        def loss_fn():
            s, _ = pl.forward(img, state, 0.5)
            d = nm.sub(s, nm.Tensor(target))
            return nm.mul(d, d)

        with nm.GradTape() as tape:
            loss = loss_fn()
        tape.backward(loss)
        checked = {
            "csm.phi": state.params["csm.phi"],
            "aem.embed": state.params["aem.embed"],
            "enc.block0.attn.wq": state.params["enc.block0.attn.wq"],
            "refine0.conv.w": state.params["refine0.conv.w"],
            "head.weight.w1": state.params["head.weight.w1"],
        }
        fd = central_diff_grads(lambda: loss_fn().item(), list(checked.values()))
        for (name, t), ref in zip(checked.items(), fd):
            err = max_rel_err(t.grad if t.grad is not None else np.zeros_like(t.data), ref)
            assert err <= 1e-4, f"{name}: rel err {err}"

    def test_parameter_groups_read_through_replaced_tensors(self, rng):
        cfg = pl.ModelConfig(**TINY, seed=3)
        state = pl.init_model(cfg)
        img = rng.random((8, 8))
        before, _ = pl.forward(img, state, 0.5)
        head = state.group("head")
        for name, t in state.params.items():
            if name.startswith("head."):
                assert head[name[len("head."):]] is t
        assert state.group("enc").group("block0")["ln1.g"] is state.params["enc.block0.ln1.g"]
        bias = state.params["head.score.b2"]
        state.params["head.score.b2"] = nm.Tensor(bias.data + 1.0, requires_grad=True)
        assert head["score.b2"] is state.params["head.score.b2"]
        shifted, _ = pl.forward(img, state, 0.5)
        fresh, _ = pl.forward(img, pl.ModelState(cfg, dict(state.params)), 0.5)
        assert shifted.item() == fresh.item() != before.item()
        state.params = {**state.params, "head.score.b2": bias}
        assert pl.forward(img, state, 0.5)[0].item() == before.item()

    @pytest.mark.parametrize("shape", [(16, 16), (64, 16), (8, 128)])
    def test_only_the_trained_grid_is_scored(self, shape):
        state = pl.init_model(pl.ModelConfig(seed=4))  # desk default, 8x8 grid
        grid = f"{shape[0] // 4}x{shape[1] // 4} token grid"
        with pytest.raises(ContractError, match=f"{grid}.*trained 8x8 grid.*32-pixel"
                                                f".*predict_image"):
            pl.forward(np.zeros(shape), state, 0.1)

    def test_side_that_pads_to_the_crop_scores_as_its_padded_image(self, rng):
        state = pl.init_model(pl.ModelConfig(seed=4))
        img = rng.random((30, 30))
        padded = np.pad(img, ((0, 2), (0, 2)), mode="reflect")
        assert pl.forward(img, state, 0.1)[0].item() == pl.forward(padded, state, 0.1)[0].item()

    def test_weight_map_reacts_to_half_noised_image(self, rng):
        from csiqa.head import weight_map
        cfg = pl.ModelConfig(seed=4)  # desk default, 32x32 crop, 8x8 grid
        state = pl.init_model(cfg)
        img = np.full((32, 32), 0.5)
        noisy = img.copy()
        noisy[:, 16:] += rng.normal(scale=0.2, size=(32, 16))
        noisy = np.clip(noisy, 0, 1)
        _, diag = pl.forward(noisy, state, 0.1)
        grid_map = weight_map(diag["token_weights"], diag["grid"])
        assert grid_map.shape == (8, 8)
        left, right = grid_map[:, :4], grid_map[:, 4:]
        assert not np.isclose(left.mean(), right.mean(), atol=1e-12)


def per_crop_loss(state, crops, targets, ratio):
    """Reference training loss: one N=1 forward per crop, summed in order."""
    total = nm.Tensor(0.0)
    for img, mos in zip(crops, targets):
        pooled, _ = pl.forward(img, state, ratio)
        diff = nm.sub(pooled, nm.Tensor(float(mos)))
        total = nm.add(total, nm.mul(diff, diff))
    return nm.mul(total, nm.Tensor(1.0 / len(crops)))


def loss_and_grads(state, loss_fn):
    for t in state.params.values():
        t.zero_grad()
    with nm.GradTape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    return loss.item(), {k: v.grad.copy() for k, v in state.params.items()}


class TestBatchedForward:
    @pytest.mark.parametrize("variant", ["cl-iqa", "cs-iqa"])
    def test_batch_matches_per_crop_loop(self, rng, variant):
        cfg = pl.ModelConfig(variant=variant, ratio=0.1, init_std=0.2, seed=8)  # desk geometry
        state = pl.init_model(cfg)
        crops = rng.random((8, cfg.crop_size, cfg.crop_size))
        mos = rng.random(8)

        def batched():
            scores, _ = pl.forward(crops, state, cfg.ratio)
            diff = nm.sub(scores, nm.Tensor(mos))
            return nm.mean_all(nm.mul(diff, diff))

        loss, grads = loss_and_grads(state, batched)
        ref_loss, ref_grads = loss_and_grads(
            state, lambda: per_crop_loss(state, crops, mos, cfg.ratio))
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        for name, ref in ref_grads.items():
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(grads[name] - ref)) <= 1e-12 * scale, name

    def test_batch_scores_and_diagnostics_per_sample(self, rng):
        cfg = pl.ModelConfig(**TINY, seed=3)
        state = pl.init_model(cfg)
        crops = rng.random((3, 8, 8))
        scores, diag = pl.forward(crops, state, 0.5)
        assert scores.shape == (3,)
        assert diag["token_weights"].shape == (3, 4)
        for i, img in enumerate(crops):
            one, one_diag = pl.forward(img, state, 0.5)
            assert one.shape == (1,)
            assert abs(scores.data[i] - one.item()) <= 1e-12 * abs(one.item())
            assert np.allclose(diag["token_weights"][i], one_diag["token_weights"][0],
                               rtol=1e-12, atol=0.0)

    # Scores of the unbatched per-image forward for these seeds, so the N=1
    # case of the batched code is held to the single-image result.
    @pytest.mark.parametrize("variant, ratio, expected", [
        ("cl-iqa", 0.1, 0.0010548170489337865),
        ("cs-iqa", 0.5, 0.0008059137709241162),
    ])
    def test_single_image_keeps_pinned_score(self, variant, ratio, expected):
        state = pl.init_model(pl.ModelConfig(variant=variant, ratio=ratio, seed=5))
        img = np.random.default_rng(11).random((32, 32))
        single, _ = pl.forward(img, state, ratio)
        stacked, _ = pl.forward(img[None], state, ratio)
        assert abs(single.item() - expected) <= 1e-12 * abs(expected)
        assert single.item() == stacked.item()


class TestTraining:
    def test_zero_lr_leaves_parameters_unchanged(self, tiny_manifest):
        cfg = pl.ModelConfig(**TINY, seed=0)
        before = pl.init_model(cfg)
        result = pl.train(tiny_manifest, cfg,
                          pl.TrainSettings(batch=4, lr=0.0, weight_decay=0.0,
                                           steps=3, val_every=0))
        for name in before.params:
            assert np.array_equal(result.state.params[name].data, before.params[name].data)

    def test_same_seed_gives_bitwise_identical_loss_curves(self, tiny_manifest):
        cfg = pl.ModelConfig(**TINY, seed=9)
        settings = pl.TrainSettings(batch=4, lr=1e-3, steps=5, val_every=0)
        h1 = pl.train(tiny_manifest, cfg, settings).history["loss"]
        h2 = pl.train(tiny_manifest, cfg, settings).history["loss"]
        assert h1 == h2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_lr_raises_numerical_divergence(self, tiny_manifest):
        cfg = pl.ModelConfig(**TINY, seed=0)
        with pytest.raises(NumericalDivergenceError):
            pl.train(tiny_manifest, cfg,
                     pl.TrainSettings(batch=4, lr=1e154, weight_decay=0.0,
                                      steps=10, val_every=0))

    def test_non_finite_last_update_raises_naming_the_parameter(self, tiny_manifest):
        # the loss before the only update is finite; the update is not
        cfg = pl.ModelConfig(**TINY, seed=0)
        with pytest.raises(NumericalDivergenceError, match="parameter csm.phi .* step 1"):
            pl.train(tiny_manifest, cfg,
                     pl.TrainSettings(batch=4, lr=float("nan"), steps=1, val_every=0))

    def test_validation_tracking_selects_best(self, tiny_manifest):
        cfg = pl.ModelConfig(**TINY, seed=1)
        result = pl.train(tiny_manifest, cfg,
                          pl.TrainSettings(batch=4, lr=1e-3, steps=6, val_every=2))
        assert len(result.history["val"]) == 3
        assert result.history["best_step"] is not None
        best_mse = min(e["mse"] for e in result.history["val"])
        best_entry = next(e for e in result.history["val"]
                          if e["step"] == result.history["best_step"])
        assert best_entry["mse"] == best_mse


    @pytest.mark.parametrize("field,value", [
        ("batch", 0), ("batch", -3), ("steps", -1), ("epochs", -1),
        ("val_every", -1), ("val_every", -3), ("lr", -1.0), ("weight_decay", -1.0),
    ])
    def test_out_of_range_counts_rejected(self, field, value):
        with pytest.raises(ContractError, match=field):
            pl.TrainSettings(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("batch", 2.5), ("batch", True), ("batch", None), ("steps", True), ("steps", 2.0),
        ("epochs", 1.5), ("epochs", False), ("val_every", False), ("val_every", 1.5),
        ("lr", True), ("weight_decay", False), ("lr", "1e-3"),
    ])
    def test_wrong_types_rejected(self, field, value):
        # a bool would pass as 0 or 1, and a float batch fails only inside numpy
        with pytest.raises(ContractError, match=field):
            pl.TrainSettings(**{field: value})

    def test_zero_steps_and_epochs_allowed(self):
        assert pl.TrainSettings(steps=0).total_steps(3) == 0
        assert pl.TrainSettings(epochs=0).total_steps(3) == 0


class TestPersistence:
    def test_save_load_save_byte_identical(self, tmp_path, tiny_manifest):
        cfg = pl.ModelConfig(**TINY, seed=2)
        result = pl.train(tiny_manifest, cfg,
                          pl.TrainSettings(batch=4, lr=1e-3, steps=3, val_every=0))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        pl.save_model(p1, result.state, result.optimizer, result.rng, result.history)
        loaded = pl.load_model(p1)
        pl.save_model(p2, loaded.state, loaded.optimizer, loaded.rng, loaded.history)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_state_bit_identical(self, tmp_path):
        cfg = pl.ModelConfig(**TINY, seed=7)
        state = pl.init_model(cfg)
        path = tmp_path / "m.ckpt"
        pl.save_model(path, state)
        loaded = pl.load_model(path)
        assert list(loaded.state.params) == list(state.params)
        for name in state.params:
            assert np.array_equal(loaded.state.params[name].data, state.params[name].data)
        assert loaded.state.config.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("extra", [{}, {"variant": "cs-iqa"}, {"depth": 0}],
                             ids=["cl-iqa", "cs-iqa", "depth-0"])
    def test_param_shapes_are_what_init_and_load_give(self, tmp_path, extra):
        cfg = pl.ModelConfig(**{**TINY, **extra})
        state = pl.init_model(cfg)
        shapes = pl.param_shapes(cfg)
        assert [(n, t.shape) for n, t in state.params.items()] == list(shapes.items())
        path = tmp_path / "m.ckpt"
        pl.save_model(path, state)
        assert list(pl.load_model(path).state.params) == list(shapes)

    def test_resume_equals_uninterrupted_training_bitwise(self, tmp_path, tiny_manifest):
        cfg = pl.ModelConfig(**TINY, seed=3)

        straight = pl.train(tiny_manifest, cfg,
                            pl.TrainSettings(batch=4, lr=1e-3, steps=8, val_every=0))

        first = pl.train(tiny_manifest, cfg,
                         pl.TrainSettings(batch=4, lr=1e-3, steps=4, val_every=0))
        mid = tmp_path / "mid.ckpt"
        pl.save_model(mid, first.state, first.optimizer, first.rng, first.history)
        resumed = pl.train(tiny_manifest, cfg,
                           pl.TrainSettings(batch=4, lr=1e-3, steps=8, val_every=0),
                           resume=pl.load_model(mid))

        assert resumed.history["loss"] == straight.history["loss"]
        for name in straight.state.params:
            assert np.array_equal(resumed.state.params[name].data,
                                  straight.state.params[name].data), name

    def test_zero_step_record_resumes_from_its_file(self, tmp_path, tiny_manifest):
        # before its first step the optimizer has no moments; the file holds
        # opt/step 0 and the zero moments adam_step would start from
        cfg = pl.ModelConfig(**TINY, seed=3)
        settings = pl.TrainSettings(batch=4, lr=1e-3, steps=3, val_every=0)
        straight = pl.train(tiny_manifest, cfg, settings)
        zero = pl.train(tiny_manifest, cfg, pl.TrainSettings(batch=4, lr=1e-3, steps=0))
        path, again = tmp_path / "zero.ckpt", tmp_path / "again.ckpt"
        pl.save_model(path, zero.state, zero.optimizer, zero.rng, zero.history)
        loaded = pl.load_model(path)
        assert loaded.optimizer.step == 0
        assert all(not m.any() for m in (*loaded.optimizer.m.values(),
                                          *loaded.optimizer.v.values()))
        pl.save_model(again, loaded.state, loaded.optimizer, loaded.rng, loaded.history)
        assert again.read_bytes() == path.read_bytes()
        for resumed in (pl.train(tiny_manifest, cfg, settings, resume=loaded),
                        pl.train(tiny_manifest, cfg, settings, resume=zero)):
            assert resumed.history["loss"] == straight.history["loss"]
            for name, t in straight.state.params.items():
                assert np.array_equal(resumed.state.params[name].data, t.data), name
                assert np.array_equal(resumed.optimizer.m[name], straight.optimizer.m[name])

    def test_parent_learnable_scale_key_is_format_error(self, tmp_path):
        # files from before the conv scale became a constant hold the key
        path = write_learnable_scale_checkpoint(tmp_path / "m.ckpt",
                                                pl.init_model(pl.ModelConfig(**TINY)))
        with pytest.raises(CheckpointFormatError, match=r"unknown keys \['learnable_scale'\]"):
            pl.load_model(path)

    def test_resume_leaves_its_record_unchanged(self, tiny_manifest):
        cfg = pl.ModelConfig(**TINY, seed=3)
        first = pl.train(tiny_manifest, cfg,
                         pl.TrainSettings(batch=4, lr=1e-3, steps=2, val_every=0))
        params = {name: t.data.copy() for name, t in first.state.params.items()}
        moments = {name: m.copy() for name, m in first.optimizer.m.items()}
        rng_state = first.rng.bit_generator.state  # a fresh dict, not a view
        second = pl.train(tiny_manifest, cfg,
                          pl.TrainSettings(batch=4, lr=1e-3, steps=4, val_every=0), resume=first)
        assert len(first.history["loss"]) == 2 and len(second.history["loss"]) == 4
        assert first.optimizer.step == 2 and second.optimizer.step == 4
        assert first.rng.bit_generator.state == rng_state
        for name, data in params.items():
            assert np.array_equal(first.state.params[name].data, data), name
            assert np.array_equal(first.optimizer.m[name], moments[name]), name
            assert first.state.params[name].data is not second.state.params[name].data

    def test_resume_with_validation_keeps_history_but_not_an_earlier_best(self, tiny_manifest):
        # the best validation (step 6) comes before the resume, so the
        # resumed call, whose own validations never beat it, has no snapshot
        cfg = pl.ModelConfig(**TINY, seed=3)

        def run(steps, resume=None):
            return pl.train(tiny_manifest, cfg,
                            pl.TrainSettings(batch=4, lr=1.5e-2, steps=steps, val_every=2),
                            resume=resume)

        straight = run(12)
        resumed = run(12, resume=run(6))

        assert resumed.history == straight.history
        for name in straight.state.params:
            assert np.array_equal(resumed.state.params[name].data,
                                  straight.state.params[name].data), name
        assert straight.best.history["best_step"] == 6
        assert straight.best.optimizer is None and straight.best.rng is None
        assert resumed.history["best_step"] == 6 and resumed.best is None

    @pytest.mark.parametrize("change", [{"crop_size": 8}, {"seed": 4}], ids=["crop", "seed"])
    def test_resume_under_another_config_is_contract_error(self, tiny_manifest, change):
        # a crop-16 model would otherwise train on crop-8 crops through a
        # sliced positional table, or split the manifest by another seed
        cfg = pl.ModelConfig(**{**TINY, "crop_size": 16}, seed=3)
        first = pl.train(tiny_manifest, cfg,
                         pl.TrainSettings(batch=4, lr=1e-3, steps=1, val_every=0))
        (field,) = change
        with pytest.raises(ContractError, match=f"{field}="):
            pl.train(tiny_manifest, replace(cfg, **change),
                     pl.TrainSettings(batch=4, lr=1e-3, steps=2, val_every=0), resume=first)

    def test_resume_with_csm_is_contract_error(self, tiny_manifest, csm_checkpoint):
        cfg = pl.ModelConfig(**TINY, seed=3)
        first = pl.train(tiny_manifest, cfg,
                         pl.TrainSettings(batch=4, lr=1e-3, steps=1, val_every=0))
        with pytest.raises(ContractError, match="csm="):
            pl.train(tiny_manifest, cfg, pl.TrainSettings(batch=4, lr=1e-3, steps=2, val_every=0),
                     resume=first, csm=pl.load_pretrained_csm(csm_checkpoint)[0])

    def test_csm_of_another_block_size_is_contract_error(self, tiny_manifest, rng, monkeypatch):
        def no_step(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(pl.nm, "descend", no_step)
        with pytest.raises(ContractError, match="block size 2, model uses 4"):
            pl.train(tiny_manifest, pl.ModelConfig(), pl.TrainSettings(steps=1),
                     csm=random_sampling_matrix(2, rng))

    @pytest.mark.parametrize("history", [None, {"loss": [0.5]}, {"val": []}],
                             ids=["none", "no-val", "no-loss"])
    def test_resume_without_history_is_contract_error(self, tmp_path, tiny_manifest, history):
        cfg = pl.ModelConfig(**TINY, seed=3)
        first = pl.train(tiny_manifest, cfg,
                         pl.TrainSettings(batch=4, lr=1e-3, steps=1, val_every=0))
        path = tmp_path / "m.ckpt"
        pl.save_model(path, first.state, optimizer=first.optimizer, rng=first.rng,
                      history=history)
        with pytest.raises(ContractError, match="history"):
            pl.train(tiny_manifest, cfg, pl.TrainSettings(batch=4, lr=1e-3, steps=2, val_every=0),
                     resume=pl.load_model(path))

    @pytest.mark.parametrize("history,entry", [
        ({"loss": [0.5], "val": [{"step": 1}]}, "val[0] = {'step': 1}"),
        ({"loss": [0.5, "x"], "val": []}, "loss[1] = 'x'"),
    ], ids=["val-without-mse", "loss-not-a-number"])
    def test_resume_with_bad_history_entry_is_contract_error(self, tmp_path, tiny_manifest,
                                                             history, entry):
        cfg = pl.ModelConfig(**TINY, seed=3)
        first = pl.train(tiny_manifest, cfg,
                         pl.TrainSettings(batch=4, lr=1e-3, steps=1, val_every=0))
        path = tmp_path / "m.ckpt"
        pl.save_model(path, first.state, optimizer=first.optimizer, rng=first.rng,
                      history=history)
        with pytest.raises(ContractError, match=re.escape(entry)):
            pl.train(tiny_manifest, cfg, pl.TrainSettings(batch=4, lr=1e-3, steps=3, val_every=0),
                     resume=pl.load_model(path))

    @pytest.mark.parametrize("config_blob,message", [
        (b'{"kind":"model","config":{', "not valid JSON"),
        (b'{"kind":"model","config":{"variant":"cl-iqa"}}', "missing keys"),
        (None, "unknown keys ['bogus']"),
    ])
    def test_bad_config_is_format_error(self, tmp_path, config_blob, message):
        state = pl.init_model(pl.ModelConfig(**TINY))
        good = tmp_path / "good.ckpt"
        pl.save_model(good, state)
        if config_blob is None:
            config = dict(state.config.to_dict(), bogus=1)
            config_blob = pl._json_bytes({"kind": "model", "config": config})
        blobs = [(name, config_blob if name == "meta/config" else payload)
                 for name, payload in read_checkpoint(good)]
        bad = tmp_path / "bad.ckpt"
        write_checkpoint(bad, blobs)
        with pytest.raises(CheckpointFormatError) as e:
            pl.load_model(bad)
        assert message in str(e.value)

    def test_unknown_meta_key_is_format_error(self, tmp_path):
        # re-saving would drop the key, so the file could not round-trip
        good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
        pl.save_model(good, pl.init_model(pl.ModelConfig(**TINY)))
        self._rewrite(good, bad, lambda name, blob: pl._json_bytes(dict(json.loads(blob), junk=1))
                      if name == "meta/config" else blob)
        with pytest.raises(CheckpointFormatError, match=r"unknown keys \['junk'\]"):
            pl.load_model(bad)

    def test_wrong_parameter_shape_is_format_error(self, tmp_path):
        state = pl.init_model(pl.ModelConfig(**TINY))
        good = tmp_path / "good.ckpt"
        pl.save_model(good, state)
        blobs = [(name, array_to_bytes(np.zeros((3, 5))) if name == "param/head.score.w1"
                  else payload) for name, payload in read_checkpoint(good)]
        bad = tmp_path / "bad.ckpt"
        write_checkpoint(bad, blobs)
        with pytest.raises(CheckpointFormatError) as e:
            pl.load_model(bad)
        expected = state.params["head.score.w1"].shape
        assert f"head.score.w1 has shape (3, 5), the config needs {expected}" in str(e.value)

    @pytest.mark.parametrize("kind", ["model", "csm-pretrain"])
    def test_geometry_only_file_fails_without_building_a_model(self, tmp_path, kind):
        # the parameter shapes come from the declared config; nothing of
        # that geometry is allocated or drawn before the first missing blob
        path = write_geometry_only_checkpoint(tmp_path / "geometry.ckpt", kind)
        load = {"model": pl.load_model, "csm-pretrain": pl.load_pretrained_csm}[kind]
        error, peak = traced_peak(lambda: pytest.raises(CheckpointFormatError, load, path))
        assert "missing blob param/csm.phi" in str(error.value)
        assert peak < 256 * 1024

    def test_csm_checkpoint_initializes_sampling_matrix(self, tmp_path, tiny_manifest, rng):
        from csiqa.sampling import pretrain_csm
        corpus = [rng.random((8, 8)) for _ in range(2)]
        matrix, rec, losses = pretrain_csm(corpus, 0.25, epochs=2, lr=1e-3,
                                           block_size=4, width=4, seed=1)
        path = tmp_path / "csm.ckpt"
        pl.save_pretrained_csm(path, matrix, rec, losses)
        cfg = pl.ModelConfig(**TINY, seed=0)
        result = pl.train(tiny_manifest, cfg,
                          pl.TrainSettings(batch=2, lr=0.0, weight_decay=0.0,
                                           steps=1, val_every=0),
                          csm=pl.load_pretrained_csm(path)[0])
        assert np.array_equal(result.state.params["csm.phi"].data, matrix.data)

    def test_csm_checkpoint_round_trips_at_its_reconstructor_ratio(self, tmp_path, rng):
        from csiqa.sampling import pretrain_csm
        corpus = [rng.random((8, 8)) for _ in range(2)]
        matrix, rec, losses = pretrain_csm(corpus, 0.5, epochs=2, lr=1e-3,
                                           block_size=4, width=4, seed=1)
        path, again = tmp_path / "csm.ckpt", tmp_path / "again.ckpt"
        pl.save_pretrained_csm(path, matrix, rec, losses)
        loaded, loaded_rec, history = pl.load_pretrained_csm(path)
        assert loaded_rec.ratio == 0.5 and history == {"loss": losses}
        assert np.array_equal(loaded.data, matrix.data)
        for name, t in rec.params.items():
            assert np.array_equal(loaded_rec.params[name].data, t.data), name
        pl.save_pretrained_csm(again, loaded, loaded_rec, history["loss"])
        assert again.read_bytes() == path.read_bytes()

    @staticmethod
    def _rewrite(src, dst, edit):
        """Copy checkpoint ``src`` to ``dst``, passing each blob through
        ``edit(name, payload)``; a ``None`` payload drops the blob."""
        blobs = [(name, edit(name, payload)) for name, payload in read_checkpoint(src)]
        write_checkpoint(dst, [(n, b) for n, b in blobs if b is not None])

    def _with_optimizer(self, tmp_path):
        state = pl.init_model(pl.ModelConfig(**TINY))
        opt = nm.AdamState()
        nm.adam_step(state.params, opt, lr=0.0)  # zero moments under every name, step 1
        good = tmp_path / "good.ckpt"
        pl.save_model(good, state, opt, np.random.default_rng(0), {})
        return good

    @pytest.mark.parametrize("blob", ["opt/m/head.score.w1", "opt/v/head.score.w1", "opt/step"])
    def test_missing_moment_blob_is_format_error(self, tmp_path, blob):
        bad = tmp_path / "bad.ckpt"
        self._rewrite(self._with_optimizer(tmp_path), bad,
                      lambda name, payload: None if name == blob else payload)
        with pytest.raises(CheckpointFormatError, match=f"missing blob {blob}"):
            pl.load_model(bad)

    def test_moment_shape_mismatch_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        self._rewrite(self._with_optimizer(tmp_path), bad,
                      lambda name, payload: array_to_bytes(np.zeros((3, 5)))
                      if name == "opt/v/aem.pos" else payload)
        with pytest.raises(CheckpointFormatError,
                           match=r"blob opt/v/aem.pos has shape \(3, 5\)"):
            pl.load_model(bad)

    def test_truncated_moment_blob_is_named(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        self._rewrite(self._with_optimizer(tmp_path), bad,
                      lambda name, payload: payload[:3] if name == "opt/m/aem.pos" else payload)
        with pytest.raises(CheckpointFormatError, match="blob opt/m/aem.pos: array blob too short"):
            pl.load_model(bad)

    @pytest.mark.parametrize("payload", [
        {"bit_generator": "MT19937"},
        {"bit_generator": "PCG64"},
        [1, 2],
    ], ids=["mt19937", "no-state", "list"])
    def test_malformed_rng_state_is_format_error(self, tmp_path, payload):
        bad = tmp_path / "bad.ckpt"
        self._rewrite(self._with_optimizer(tmp_path), bad,
                      lambda name, blob: pl._json_bytes(payload) if name == "rng/train" else blob)
        with pytest.raises(CheckpointFormatError, match="rng/train"):
            pl.load_model(bad)

    @pytest.mark.parametrize("kind", ["model", "csm-pretrain"])
    @pytest.mark.parametrize("blob", ["opt/m/stray", "opt/junk", "rng/other", "meta/extra"])
    def test_unknown_blob_is_format_error(self, tmp_path, rng, kind, blob):
        # the model file holds an optimizer and RNG, so opt/m/stray sits
        # beside real moments
        if kind == "model":
            good = self._with_optimizer(tmp_path)
        else:
            good = tmp_path / "csm.ckpt"
            pl.save_pretrained_csm(good, random_sampling_matrix(4, rng),
                                   init_reconstructor(4, 0.25, rng, width=4), [0.5])
        bad = tmp_path / "bad.ckpt"
        write_checkpoint(bad, [*read_checkpoint(good), (blob, array_to_bytes(np.zeros(2)))])
        load = {"model": pl.load_model, "csm-pretrain": pl.load_pretrained_csm}[kind]
        with pytest.raises(CheckpointFormatError, match=rf"unexpected blobs \['{blob}'\]"):
            load(bad)

    @pytest.mark.parametrize("history", [b"[1,2]", b"0.5", b"null"],
                             ids=["list", "number", "null"])
    def test_history_that_is_not_an_object_is_format_error(self, tmp_path, tiny_manifest,
                                                           history):
        cfg = pl.ModelConfig(**TINY, seed=3)
        first = pl.train(tiny_manifest, cfg,
                         pl.TrainSettings(batch=4, lr=1e-3, steps=1, val_every=0))
        good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
        pl.save_model(good, first.state, first.optimizer, first.rng, first.history)
        self._rewrite(good, bad, lambda name, blob: history if name == "meta/history" else blob)
        with pytest.raises(CheckpointFormatError, match="meta/history is not a JSON object"):
            pl.load_model(bad)

    def test_writer_rejects_tensors_off_its_table(self, tmp_path, rng):
        # the block size comes from the reconstructor, so a block-2 matrix
        # is off the block-4 table
        path = tmp_path / "csm.ckpt"
        with pytest.raises(ContractError, match=r"param blobs \[\('csm.phi', \(4, 4\)\)\]"):
            pl.save_pretrained_csm(path, random_sampling_matrix(2, rng),
                                   init_reconstructor(4, 0.25, rng, width=4), [0.5])
        assert not path.exists()
        state = pl.init_model(pl.ModelConfig(**TINY))
        opt = nm.AdamState()
        nm.adam_step(state.params, opt, lr=0.0)
        del opt.v["aem.pos"]
        with pytest.raises(ContractError, match=r"opt/v blobs .* needs \[\('aem.pos'"):
            pl.save_model(path, state, opt)
        with pytest.raises(ContractError, match="history must be a dict"):
            pl.save_model(path, state, history=[1, 2])
        assert not path.exists()

    @pytest.fixture
    def csm_checkpoint(self, tmp_path, rng):
        from csiqa.sampling import pretrain_csm
        corpus = [rng.random((8, 8)) for _ in range(2)]
        matrix, rec, losses = pretrain_csm(corpus, 0.25, epochs=2, lr=1e-3,
                                           block_size=4, width=4, seed=1)
        path = tmp_path / "csm.ckpt"
        pl.save_pretrained_csm(path, matrix, rec, losses)
        return path

    def test_csm_initialization_prints_nothing(self, csm_checkpoint, tiny_manifest, capsys):
        pl.train(tiny_manifest, pl.ModelConfig(**TINY, seed=0),
                 pl.TrainSettings(batch=2, lr=0.0, steps=1, val_every=0),
                 csm=pl.load_pretrained_csm(csm_checkpoint)[0])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("edit,message", [
        (lambda meta: b'{"kind":', "not valid JSON"),
        (lambda meta: dict(meta, kind="model"), "'model' is not 'csm-pretrain'"),
        *[(lambda meta, k=k: {n: v for n, v in meta.items() if n != k}, k)
          for k in ("kind", "block_size", "ratio", "width")],
        (lambda meta: dict(meta, width="wide"), "invalid pretraining config"),
        (lambda meta: dict(meta, width=8), "conv1.w has shape"),
        (lambda meta: dict(meta, extra=1), r"unknown keys \['extra'\]"),
    ], ids=["bad-json", "wrong-kind", "no-kind", "no-block_size", "no-ratio", "no-width",
            "bad-width", "other-width", "extra-key"])
    def test_bad_csm_meta_is_format_error(self, tmp_path, csm_checkpoint, edit, message):
        def rewrite(name, payload):
            if name != "meta/config":
                return payload
            new = edit(json.loads(payload))
            return new if isinstance(new, bytes) else pl._json_bytes(new)

        bad = tmp_path / "bad.ckpt"
        self._rewrite(csm_checkpoint, bad, rewrite)
        with pytest.raises(CheckpointFormatError, match=message):
            pl.load_pretrained_csm(bad)

    @pytest.mark.parametrize("edit,message", [
        (lambda name, blob: None if name == "param/csm.phi" else blob, "missing blob param/csm.phi"),
        (lambda name, blob: None if name == "param/csnet.conv2.b" else blob,
         "missing blob param/csnet.conv2.b"),
        (lambda name, blob: array_to_bytes(np.zeros(3)) if name == "param/csnet.init.b" else blob,
         r"init.b has shape \(3,\)"),
        (lambda name, blob: array_to_bytes(np.zeros((4, 4))) if name == "param/csm.phi" else blob,
         r"csm.phi has shape \(4, 4\)"),
    ], ids=["no-phi", "no-csnet-param", "csnet-shape", "phi-shape"])
    def test_bad_csm_params_are_format_errors(self, tmp_path, csm_checkpoint, edit, message):
        bad = tmp_path / "bad.ckpt"
        self._rewrite(csm_checkpoint, bad, edit)
        with pytest.raises(CheckpointFormatError, match=message):
            pl.load_pretrained_csm(bad)

    def test_stray_param_blob_in_csm_checkpoint_is_format_error(self, tmp_path,
                                                                 csm_checkpoint):
        bad = tmp_path / "bad.ckpt"
        write_checkpoint(bad, [*read_checkpoint(csm_checkpoint),
                               ("param/stray", array_to_bytes(np.zeros(2)))])
        with pytest.raises(CheckpointFormatError,
                           match=r"unexpected parameter blobs \['param/stray'\]"):
            pl.load_pretrained_csm(bad)

    def test_renamed_csm_param_is_format_error(self, tmp_path, csm_checkpoint):
        bad = tmp_path / "bad.ckpt"
        write_checkpoint(bad, [(n.replace("conv3", "conv4"), b)
                               for n, b in read_checkpoint(csm_checkpoint)])
        with pytest.raises(CheckpointFormatError,
                           match=r"unexpected parameter blobs \['param/csnet.conv4.b'"):
            pl.load_pretrained_csm(bad)


class TestEvaluation:
    @pytest.mark.parametrize("n_crops", [1, 5])
    @pytest.mark.parametrize("ratio", pl.DEFAULT_RATIO_SET)
    @pytest.mark.parametrize("variant", ["cl-iqa", "cs-iqa"])
    def test_predict_image_equals_crop_loop(self, variant, ratio, n_crops):
        cfg = pl.ModelConfig(variant=variant, ratio=ratio, init_std=0.2, seed=4)  # desk geometry
        state = pl.init_model(cfg)
        img = np.random.default_rng(9).random((40, 45))
        got = pl.predict_image(img, state, ratio, n_crops, np.random.default_rng(1))
        # Reference: one N=1 forward per crop, crops drawn and summed in order.
        rng = np.random.default_rng(1)
        padded = pad_to_size(img, cfg.crop_size, cfg.crop_size)
        total = 0.0
        for _ in range(n_crops):
            score, _ = pl.forward(random_crop(padded, cfg.crop_size, rng), state, ratio)
            total += score.item()
        assert got == total / n_crops

    @pytest.mark.parametrize("n_crops", [0, -2, True, 2.0])
    def test_predict_image_needs_a_crop(self, n_crops):
        state = pl.init_model(pl.ModelConfig(**TINY, seed=0))
        with pytest.raises(ContractError, match="crops"):
            pl.predict_image(np.zeros((12, 12)), state, 0.5, n_crops, np.random.default_rng(0))

    def test_five_crop_prediction_deterministic(self, tiny_manifest):
        cfg = pl.ModelConfig(**TINY, seed=0)
        state = pl.init_model(cfg)
        a = pl.predict_records(tiny_manifest[:3], state, ratio=0.5, n_crops=5, seed=11)
        b = pl.predict_records(tiny_manifest[:3], state, ratio=0.5, n_crops=5, seed=11)
        assert np.array_equal(a, b)

    def test_crop_count_changes_scores(self, tiny_manifest):
        cfg = pl.ModelConfig(**TINY, seed=0)
        state = pl.init_model(cfg)
        a = pl.predict_records(tiny_manifest[:2], state, ratio=0.5, n_crops=1, seed=11)
        b = pl.predict_records(tiny_manifest[:2], state, ratio=0.5, n_crops=5, seed=11)
        assert not np.array_equal(a, b)

    def test_evaluate_returns_test_split_metrics(self, tiny_manifest):
        cfg = pl.ModelConfig(**TINY, seed=0)
        state = pl.init_model(cfg)
        out = pl.evaluate(tiny_manifest, state, ratio=0.5, n_crops=2)
        assert -1.0 <= out["plcc"] <= 1.0
        assert -1.0 <= out["srcc"] <= 1.0
        assert out["n_images"] == len(out["scores"]) == len(out["mos"])

    def test_non_finite_score_raises(self, tiny_manifest):
        state = pl.init_model(pl.ModelConfig(**TINY, seed=0))
        state.params["head.score.b2"].data[...] = np.nan
        with pytest.raises(NumericalDivergenceError, match="non-finite"):
            pl.evaluate(tiny_manifest, state, ratio=0.5, n_crops=1)

    def test_perfect_and_inverted_predictions(self):
        mos = np.array([0.1, 0.4, 0.3, 0.9, 0.7])
        assert pl.plcc(mos, mos) == 1.0 and pl.srcc(mos, mos) == 1.0
        inverted = mos.mean() - (mos - mos.mean())
        assert pl.plcc(inverted, mos) == -1.0 and pl.srcc(inverted, mos) == -1.0


class TestConfig:
    def test_paper_scale_expressible(self):
        cfg = pl.ModelConfig(block_size=16, embed_dim=768, depth=12, heads=12,
                             window=7, crop_size=224)
        assert cfg.block_size == 16 and cfg.embed_dim == 768
        assert cfg.depth == 12 and cfg.heads == 12 and cfg.crop_size == 224
        assert cfg.grid_side == 14 and cfg.window == 7

    def test_round_trip_through_dict(self):
        cfg = pl.ModelConfig(**TINY, ratio_mode="arbitrary", seed=5)
        assert pl.ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ContractError):
            pl.ModelConfig(embed_dim=30, heads=4)
        with pytest.raises(ContractError):
            pl.ModelConfig(window=3)  # 8-wide grid not divisible by 3
        with pytest.raises(ContractError):
            pl.ModelConfig(crop_size=30)

    @pytest.mark.parametrize("field", ["block_size", "embed_dim", "heads", "window", "crop_size"])
    def test_non_positive_sizes_rejected(self, field):
        with pytest.raises(ContractError, match=field):
            pl.ModelConfig(**{field: 0})

    def test_negative_depth_rejected(self):
        with pytest.raises(ContractError, match="depth"):
            pl.ModelConfig(depth=-1)

    @pytest.mark.parametrize("field,value", [
        ("embed_dim", 32.0), ("depth", 1.5), ("seed", -1), ("seed", 0.5),
        ("init_std", -0.1), ("embed_gain", float("nan")),
    ])
    def test_values_init_cannot_draw_with_rejected(self, field, value):
        # loading builds no model, so the config itself must rule out what
        # init_model could not draw from
        with pytest.raises(ContractError, match=field):
            pl.ModelConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("ratio", True), ("init_std", True), ("embed_gain", False), ("ratio", "0.1"),
    ])
    def test_boolean_or_text_in_a_float_field_rejected(self, field, value):
        # True would otherwise pass as 1: a model file holding "ratio": true
        # loaded and scored at ratio 1.0
        with pytest.raises(ContractError, match=field):
            pl.ModelConfig(**{field: value})
        with pytest.raises(ContractError, match=field):
            pl.ModelConfig(ratio_mode="arbitrary", **{field: value})

    @pytest.mark.parametrize("ratio", [5.0, 0.0, float("nan")])
    def test_arbitrary_mode_ratio_out_of_range_rejected(self, ratio):
        # arbitrary mode trains on DEFAULT_RATIO_SET, but the stored ratio
        # meets the one rule: a model file holding 5.0 must not load
        with pytest.raises(ContractError, match="ratio"):
            pl.ModelConfig(ratio_mode="arbitrary", ratio=ratio)

    def test_desk_model_parameters(self):
        params = pl.init_model(pl.ModelConfig()).params
        assert len(params) == 73
        assert sum(t.size for t in params.values()) == 63842
        assert not any(name.endswith("attn.kb") for name in params)


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def desk_step_faults(workdir) -> float:
    """Minor faults per warm desk training step (batch 8)."""
    records = read_manifest(generate_toy_dataset(workdir, n_images=16, size=40, seed=5))
    cfg = pl.ModelConfig(seed=1)

    def run(steps):
        pl.train(records, cfg, pl.TrainSettings(batch=8, lr=1e-4, steps=steps, val_every=0))

    run(2)
    before = _minor_faults()
    run(6)
    return (_minor_faults() - before) / 6


@pytest.mark.skipif(
    resource is None or not sys.platform.startswith("linux")
    or platform.libc_ver()[0] != "glibc",
    reason="the heap top pad is set through glibc's mallopt")
class TestHeapStaysResident:
    """Freed temporaries stay mapped, so a warm op faults in few pages.

    Without the heap top pad, a desk training step re-faults about 7,600
    pages and a five-crop batch about 3,200.
    """

    BOUND = 200

    def test_desk_training_step(self, tmp_path):
        assert desk_step_faults(tmp_path) < self.BOUND

    def test_desk_training_step_without_scipy(self, tmp_path):
        """The pad is set on a heap about 30 MB smaller when scipy is not
        loaded; the bound must hold there too."""
        faults, loaded = run_fresh(f"""
import json, sys
from test_pipeline import desk_step_faults
print(json.dumps([desk_step_faults(sys.argv[1]), {SCIPY_MODULES}]))
""", str(tmp_path))
        assert loaded == []
        assert faults < self.BOUND

    def test_five_crop_scoring(self):
        state = pl.init_model(pl.ModelConfig(seed=1))
        img = np.random.default_rng(2).random((48, 48))
        for i in range(2):
            pl.predict_image(img, state, 0.1, 5, np.random.default_rng(i))
        before = _minor_faults()
        for i in range(10):
            pl.predict_image(img, state, 0.1, 5, np.random.default_rng(i))
        assert (_minor_faults() - before) / 10 < self.BOUND
