import json
import os
import struct
import warnings
from dataclasses import fields

import numpy as np
import pytest

from csiqa.checkpoint import array_to_bytes, read_checkpoint, write_checkpoint
from csiqa.cli import COMMANDS, SETTINGS, main
from csiqa.data import ManifestRecord, generate_toy_dataset, read_manifest
from csiqa.pipeline import (
    ModelConfig,
    evaluate,
    load_model,
    load_pretrained_csm,
    predict_records,
    save_model,
    save_pretrained_csm,
)
from csiqa.pnm import read_image
from csiqa.sampling import init_reconstructor, random_sampling_matrix

from conftest import (
    OLD_CONFIG_KEYS,
    frame_checkpoint,
    traced_peak,
    write_geometry_only_checkpoint,
    write_learnable_scale_checkpoint,
    write_old_format_checkpoint,
)

TINY_TRAIN = ["--block-size", "4", "--embed-dim", "16", "--depth", "1",
              "--heads", "4", "--window", "2", "--crop-size", "8",
              "--batch", "4", "--lr", "1e-3", "--steps", "3"]


@pytest.fixture(scope="module")
def toyset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_toy")
    manifest = generate_toy_dataset(root / "data", n_images=12, size=12, seed=5)
    return {"root": root, "manifest": str(manifest),
            "corpus": str(root / "data"), "image": str(root / "data" / "toy_000.pgm")}


def with_nan_parameter(ckpt, name, out) -> str:
    """A copy of checkpoint ``ckpt`` at ``out`` with parameter ``name`` NaN."""
    loaded = load_model(ckpt)
    loaded.state.params[name].data[...] = np.nan
    save_model(out, loaded.state)
    return str(out)


@pytest.fixture(scope="module")
def trained_ckpt(toyset, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ckpt") / "model.ckpt")
    code = main(["train", "--manifest", toyset["manifest"], "--variant", "cl-iqa",
                 "--ratio", "0.25", "--out", out, *TINY_TRAIN, "--seed", "0"])
    assert code == 0
    return out


class TestPretrain:
    def test_smoke_run_reduces_mse(self, toyset, tmp_path, capsys):
        out = str(tmp_path / "csm.ckpt")
        code = main(["pretrain", "--corpus", toyset["corpus"], "--ratio", "0.25",
                     "--out", out, "--epochs", "40", "--lr", "1e-2",
                     "--width", "8", "--seed", "1"])
        assert code == 0
        assert os.path.exists(out)
        captured = capsys.readouterr().out
        assert "# csiqa pretrain" in captured
        _, _, history = load_pretrained_csm(out)
        assert history["loss"][-1] < history["loss"][0]

    def test_zero_ratio_is_usage_error(self, toyset, tmp_path, capsys):
        code = main(["pretrain", "--corpus", toyset["corpus"], "--ratio", "0",
                     "--out", str(tmp_path / "x.ckpt")])
        assert code == 2
        assert "ratio" in capsys.readouterr().err

    def test_zero_epochs_equals_initialization(self, toyset, tmp_path):
        out = str(tmp_path / "init.ckpt")
        code = main(["pretrain", "--corpus", toyset["corpus"], "--ratio", "0.5",
                     "--out", out, "--epochs", "0", "--seed", "9"])
        assert code == 0
        matrix, _, _ = load_pretrained_csm(out)
        fresh_rng = np.random.default_rng(np.random.SeedSequence([9, 11, 0]))
        fresh = random_sampling_matrix(4, fresh_rng)
        assert np.array_equal(matrix.data, fresh.data)

    def test_missing_corpus_dir(self, tmp_path, capsys):
        code = main(["pretrain", "--corpus", str(tmp_path / "nope"), "--ratio", "0.5",
                     "--out", str(tmp_path / "x.ckpt")])
        assert code == 2


    @pytest.mark.parametrize("lr,epochs", [("nan", "5"), ("1e300", "5"), ("nan", "1")])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_exits_3_without_writing(self, lr, epochs, toyset, tmp_path, capsys):
        out = tmp_path / "csm.ckpt"
        code = main(["pretrain", "--corpus", toyset["corpus"], "--ratio", "0.25",
                     "--out", str(out), "--epochs", epochs, "--lr", lr, "--width", "4"])
        assert code == 3
        captured = capsys.readouterr()
        assert "non-finite" in captured.err and "epoch" in captured.err
        assert "final mse" not in captured.out
        assert not out.exists()

    def test_negative_width_exits_2(self, toyset, tmp_path, capsys):
        out = tmp_path / "csm.ckpt"
        code = main(["pretrain", "--corpus", toyset["corpus"], "--ratio", "0.25",
                     "--out", str(out), "--epochs", "1", "--width", "-3"])
        assert code == 2
        assert "width" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_smoke_run_prints_best_val(self, toyset, tmp_path, capsys):
        out = str(tmp_path / "m.ckpt")
        code = main(["train", "--manifest", toyset["manifest"], "--variant", "cl-iqa",
                     "--ratio", "0.25", "--out", out, *TINY_TRAIN, "--seed", "2"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "best val" in captured
        assert os.path.exists(out)

    def test_parameter_count_printed_before_the_draw(self, toyset, tmp_path, capsys):
        # the desk config, at no training steps: the file still resumes
        out = tmp_path / "m.ckpt"
        assert main(["train", "--manifest", toyset["manifest"], "--epochs", "0",
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        count = lines.index("# parameters = 63842 (510736 bytes)")
        assert lines[count + 1:] == ["no training steps run", f"wrote {out}"]
        assert load_model(out).optimizer.step == 0

    def test_missing_out_is_usage_error(self, toyset):
        code = main(["train", "--manifest", toyset["manifest"], "--ratio", "0.25"])
        assert code == 2

    def test_bad_manifest_rows_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("path,mos\nimg.pgm,0.5\n,oops\n", encoding="utf-8")
        code = main(["train", "--manifest", str(bad), "--out", str(tmp_path / "m.ckpt"),
                     *TINY_TRAIN])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_csm_initialization_is_logged(self, toyset, tmp_path, capsys):
        csm_out = str(tmp_path / "csm.ckpt")
        assert main(["pretrain", "--corpus", toyset["corpus"], "--ratio", "0.25",
                     "--out", csm_out, "--epochs", "2", "--width", "4",
                     "--seed", "3"]) == 0
        capsys.readouterr()
        out = str(tmp_path / "m.ckpt")
        code = main(["train", "--manifest", toyset["manifest"], "--ratio", "0.25",
                     "--csm", csm_out, "--out", out, *TINY_TRAIN, "--seed", "3"])
        assert code == 0
        assert "initialized sampling matrix from" in capsys.readouterr().out

    def test_malformed_csm_checkpoint_exits_2(self, toyset, tmp_path, capsys):
        bad = str(tmp_path / "bad.ckpt")
        write_checkpoint(bad, [("meta/config", b'{"kind":'), ("param/csm.phi", b"")])
        code = main(["train", "--manifest", toyset["manifest"], "--ratio", "0.25",
                     "--csm", bad, "--out", str(tmp_path / "m.ckpt"), *TINY_TRAIN])
        assert code == 2
        assert "meta/config is not valid JSON" in capsys.readouterr().err

    def test_csm_checkpoint_with_stray_param_exits_2(self, toyset, tmp_path, capsys):
        rng = np.random.default_rng(0)
        good, bad = tmp_path / "csm.ckpt", tmp_path / "bad.ckpt"
        save_pretrained_csm(good, random_sampling_matrix(4, rng),
                            init_reconstructor(4, 0.25, rng, width=4), [])
        write_checkpoint(bad, [*read_checkpoint(good),
                               ("param/stray", array_to_bytes(np.zeros(2)))])
        out = tmp_path / "m.ckpt"
        code = main(["train", "--manifest", toyset["manifest"], "--ratio", "0.25",
                     "--csm", str(bad), "--out", str(out), *TINY_TRAIN])
        err = capsys.readouterr().err
        assert code == 2 and "param/stray" in err and "Traceback" not in err
        assert not out.exists()

    def test_arbitrary_ratio_mode(self, toyset, tmp_path):
        out = str(tmp_path / "mr.ckpt")
        code = main(["train", "--manifest", toyset["manifest"], "--ratio", "r",
                     "--out", out, *TINY_TRAIN, "--seed", "1"])
        assert code == 0
        cfg = load_model(out).state.config
        assert cfg.ratio_mode == "arbitrary"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_lr_exits_3(self, toyset, tmp_path, capsys):
        args = ["train", "--manifest", toyset["manifest"], "--ratio", "0.25",
                "--out", str(tmp_path / "m.ckpt"), "--block-size", "4",
                "--embed-dim", "16", "--depth", "1", "--heads", "4",
                "--window", "2", "--crop-size", "8", "--batch", "4",
                "--steps", "8", "--lr", "1e154", "--weight-decay", "0"]
        assert main(args) == 3
        assert "non-finite" in capsys.readouterr().err


    def test_nan_lr_exits_3_without_writing(self, toyset, tmp_path, capsys):
        out = tmp_path / "m.ckpt"
        args = ["train", "--manifest", toyset["manifest"], "--ratio", "0.25",
                "--out", str(out), *TINY_TRAIN[:-4], "--steps", "1", "--lr", "nan"]
        assert main(args) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_prints_metrics(self, toyset, trained_ckpt, capsys):
        code = main(["eval", "--manifest", toyset["manifest"], "--ckpt", trained_ckpt,
                     "--crops", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PLCC=" in out and "SRCC=" in out

    def test_report_csv(self, toyset, trained_ckpt, tmp_path, capsys):
        report = str(tmp_path / "report.csv")
        code = main(["eval", "--manifest", toyset["manifest"], "--ckpt", trained_ckpt,
                     "--crops", "2", "--report", report, "--seed", "0"])
        assert code == 0
        lines = open(report, encoding="utf-8").read().splitlines()
        assert lines[0] == "path,mos,score"
        assert len(lines) > 1
        result = evaluate(read_manifest(toyset["manifest"]), load_model(trained_ckpt).state,
                          None, 2, seed=0)
        assert lines[1:] == [f"{r.path},{r.mos!r},{float(sc)!r}"
                             for r, sc in zip(result["records"], result["scores"])]
        assert [float(line.rsplit(",", 1)[1]) for line in lines[1:]] == list(result["scores"])

    def test_crop_count_changes_report_deterministically(self, toyset, trained_ckpt, tmp_path, capsys):
        reports = {}
        for crops in ("1", "5", "1"):
            path = str(tmp_path / f"r{crops}_{len(reports)}.csv")
            assert main(["eval", "--manifest", toyset["manifest"], "--ckpt", trained_ckpt,
                         "--crops", crops, "--report", path, "--seed", "4"]) == 0
            reports[path] = open(path, encoding="utf-8").read()
        contents = list(reports.values())
        assert contents[0] != contents[1]  # 1 crop vs 5 crops differ
        assert contents[0] == contents[2]  # same command reproduces bytes

    def test_incompatible_bypass_ratio_exits_2(self, toyset, tmp_path, capsys):
        out = str(tmp_path / "cs.ckpt")
        assert main(["train", "--manifest", toyset["manifest"], "--variant", "cs-iqa",
                     "--ratio", "0.25", "--out", out, "--block-size", "8",
                     "--embed-dim", "32", "--depth", "1", "--heads", "4",
                     "--window", "2", "--crop-size", "16", "--batch", "4",
                     "--lr", "1e-3", "--steps", "2", "--seed", "0"]) == 0
        capsys.readouterr()
        code = main(["eval", "--manifest", toyset["manifest"], "--ckpt", out,
                     "--ratio", "1.0", "--crops", "1"])
        assert code == 2
        assert "bypass" in capsys.readouterr().err


    def test_nan_parameter_exits_3(self, toyset, trained_ckpt, tmp_path, capsys):
        bad = with_nan_parameter(trained_ckpt, "head.score.b2", tmp_path / "nan.ckpt")
        code = main(["eval", "--manifest", toyset["manifest"], "--ckpt", bad, "--crops", "1"])
        assert code == 3
        captured = capsys.readouterr()
        assert "non-finite" in captured.err and "PLCC=" not in captured.out


class TestScore:
    def test_prints_score_and_is_deterministic(self, toyset, trained_ckpt, capsys):
        code = main(["score", "--image", toyset["image"], "--ckpt", trained_ckpt,
                     "--seed", "7"])
        assert code == 0
        first = capsys.readouterr().out
        float(first.strip().splitlines()[-1])  # last line is the bare score
        assert main(["score", "--image", toyset["image"], "--ckpt", trained_ckpt,
                     "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_prints_the_score_predict_records_gives(self, toyset, trained_ckpt, capsys):
        # score and eval draw one crop stream: image i of a list gets [seed, 3, i]
        assert main(["score", "--image", toyset["image"], "--ckpt", trained_ckpt,
                     "--seed", "7"]) == 0
        printed = capsys.readouterr().out.splitlines()[-1]
        [expected] = predict_records([ManifestRecord(toyset["image"], 0.0)],
                                     load_model(trained_ckpt).state, seed=7)
        assert printed == f"{expected:.10g}"

    def test_weight_map_file_valid_p5(self, toyset, trained_ckpt, tmp_path, capsys):
        wm = str(tmp_path / "wm.pgm")
        code = main(["score", "--image", toyset["image"], "--ckpt", trained_ckpt,
                     "--weight-map", wm])
        assert code == 0
        raw = open(wm, "rb").read()
        assert raw.startswith(b"P5")
        img = read_image(wm)
        # 8x8 crop with block size 4 -> 2x2 token grid
        assert img.shape == (2, 2)

    def test_weight_map_subcommand(self, toyset, trained_ckpt, tmp_path, capsys):
        wm = str(tmp_path / "wm2.pgm")
        code = main(["weight-map", "--image", toyset["image"], "--ckpt", trained_ckpt,
                     "--out", wm])
        assert code == 0
        assert read_image(wm).shape == (2, 2)

    def test_unreadable_image_exits_2(self, trained_ckpt, tmp_path):
        assert main(["score", "--image", str(tmp_path / "missing.pgm"),
                     "--ckpt", trained_ckpt]) == 2

    def test_nan_score_exits_3_without_writing(self, toyset, trained_ckpt, tmp_path, capsys):
        bad = with_nan_parameter(trained_ckpt, "head.score.b2", tmp_path / "nan.ckpt")
        wm = tmp_path / "wm.pgm"
        code = main(["score", "--image", toyset["image"], "--ckpt", bad,
                     "--weight-map", str(wm)])
        assert code == 3
        captured = capsys.readouterr()
        assert "non-finite" in captured.err and "Traceback" not in captured.err
        assert all(line.startswith("# ") for line in captured.out.splitlines())
        assert not wm.exists()

    def test_nan_weights_exit_3_without_writing(self, toyset, trained_ckpt, tmp_path, capsys):
        bad = with_nan_parameter(trained_ckpt, "head.weight.b2", tmp_path / "nan.ckpt")
        wm = tmp_path / "wm.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["weight-map", "--image", toyset["image"], "--ckpt", bad,
                         "--out", str(wm)])
        assert code == 3
        captured = capsys.readouterr()
        assert "non-finite" in captured.err and "Traceback" not in captured.err
        assert not wm.exists()


class TestBadCheckpoint:
    """A checkpoint that cannot be loaded is an input error: exit 2, the
    reason on stderr, no traceback."""

    @staticmethod
    def _score(toyset, ckpt, capsys):
        code = main(["score", "--image", toyset["image"], "--ckpt", str(ckpt)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def test_non_utf8_blob_name(self, toyset, trained_ckpt, tmp_path, capsys):
        blobs = [(name.encode("utf-8"), payload)
                 for name, payload in read_checkpoint(trained_ckpt)]
        blobs[1] = (b"param/\xff" + blobs[1][0][len("param/"):], blobs[1][1])
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(frame_checkpoint(blobs))
        code, err = self._score(toyset, bad, capsys)
        assert code == 2 and "not UTF-8" in err and "offset" in err

    def test_short_array_header(self, toyset, trained_ckpt, tmp_path, capsys):
        short = struct.pack("<I", 3) + b"\x00" * 4
        blobs = [(name, short if name == "param/csm.phi" else payload)
                 for name, payload in read_checkpoint(trained_ckpt)]
        bad = tmp_path / "bad.ckpt"
        write_checkpoint(bad, blobs)
        code, err = self._score(toyset, bad, capsys)
        assert code == 2 and "param/csm.phi" in err

    def test_eval_on_stray_blob_exits_2(self, toyset, trained_ckpt, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        write_checkpoint(bad, [*read_checkpoint(trained_ckpt),
                               ("opt/m/stray", array_to_bytes(np.zeros(2)))])
        code = main(["eval", "--manifest", toyset["manifest"], "--ckpt", str(bad),
                     "--crops", "1"])
        captured = capsys.readouterr()
        assert code == 2 and "opt/m/stray" in captured.err and "Traceback" not in captured.err
        assert "PLCC=" not in captured.out

    @pytest.mark.parametrize("kind", ["model", "csm-pretrain"])
    def test_geometry_only_file_exits_2(self, kind, toyset, tmp_path, capsys):
        ckpt = write_geometry_only_checkpoint(tmp_path / "geometry.ckpt", kind)
        out = tmp_path / "m.ckpt"
        args = {"model": ["score", "--image", toyset["image"], "--ckpt", ckpt],
                "csm-pretrain": ["train", "--manifest", toyset["manifest"], "--csm", ckpt,
                                 "--out", str(out), *TINY_TRAIN]}[kind]
        code, peak = traced_peak(lambda: main(args))
        err = capsys.readouterr().err
        assert code == 2 and "missing blob param/csm.phi" in err and "Traceback" not in err
        assert peak < 256 * 1024
        assert not out.exists()

    def test_eval_on_unknown_meta_key_exits_2(self, toyset, trained_ckpt, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        write_checkpoint(bad, [(name, payload[:-1] + b',"junk":1}' if name == "meta/config"
                                else payload) for name, payload in read_checkpoint(trained_ckpt)])
        code = main(["eval", "--manifest", toyset["manifest"], "--ckpt", str(bad),
                     "--crops", "1"])
        captured = capsys.readouterr()
        assert code == 2 and "unknown keys ['junk']" in captured.err
        assert "PLCC=" not in captured.out and "Traceback" not in captured.err

    def test_eval_on_learnable_scale_key_exits_2(self, toyset, trained_ckpt, tmp_path, capsys):
        old = write_learnable_scale_checkpoint(tmp_path / "old.ckpt",
                                               load_model(trained_ckpt).state)
        code = main(["eval", "--manifest", toyset["manifest"], "--ckpt", old, "--crops", "1"])
        captured = capsys.readouterr()
        assert code == 2 and "unknown keys ['learnable_scale']" in captured.err
        assert "PLCC=" not in captured.out and "Traceback" not in captured.err

    @pytest.mark.parametrize("kind,name", [("model", "window"), ("model", "seed"),
                                           ("csm-pretrain", "width")])
    def test_boolean_for_an_integer_exits_2(self, kind, name, toyset, trained_ckpt, tmp_path,
                                            capsys):
        """``true`` where the config needs an integer is a format error that
        names the field, not a traceback inside the model or a silent 1."""
        ckpt, out = tmp_path / "bool.ckpt", tmp_path / "m.ckpt"
        if kind == "model":
            source, args = trained_ckpt, ["score", "--image", toyset["image"], "--ckpt", str(ckpt)]
        else:
            source, rng = tmp_path / "csm.ckpt", np.random.default_rng(0)
            save_pretrained_csm(source, random_sampling_matrix(4, rng),
                                init_reconstructor(4, 0.25, rng, width=4), [])
            args = ["train", "--manifest", toyset["manifest"], "--csm", str(ckpt),
                    "--out", str(out), *TINY_TRAIN]
        blobs = dict(read_checkpoint(source))
        meta = json.loads(blobs["meta/config"])
        (meta["config"] if kind == "model" else meta)[name] = True
        blobs["meta/config"] = json.dumps(meta).encode("utf-8")
        write_checkpoint(ckpt, list(blobs.items()))
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2 and f"{name} must be" in captured.err and "True" in captured.err
        assert "Traceback" not in captured.err and not out.exists()

    @pytest.mark.parametrize("command", ["eval", "score"])
    def test_old_format_names_removed_config_keys(self, command, toyset, trained_ckpt,
                                                  tmp_path, capsys):
        old = tmp_path / "old.ckpt"
        write_old_format_checkpoint(old, load_model(trained_ckpt).state)
        inputs = {"eval": ["--manifest", toyset["manifest"]],
                  "score": ["--image", toyset["image"]]}[command]
        assert main([command, *inputs, "--ckpt", str(old)]) == 2
        err = capsys.readouterr().err
        assert f"unknown keys {sorted(OLD_CONFIG_KEYS)}" in err and "Traceback" not in err


class TestCountSettings:
    """Out-of-range counts and rates are input errors: exit 2, no output, no
    traceback."""

    @pytest.mark.parametrize("command,flags,name", [
        ("train", ["--batch", "0"], "batch"),
        ("train", ["--batch", "-3"], "batch"),
        ("train", ["--steps", "-1"], "steps"),
        ("train", ["--steps", "0", "--epochs", "-1"], "epochs"),
        ("train", ["--block-size", "0"], "block_size"),
        ("train", ["--heads", "0"], "heads"),
        ("pretrain", ["--epochs", "-1"], "epochs"),
        ("eval", ["--crops", "0"], "crops"),
        ("eval", ["--crops", "-2"], "crops"),
        ("score", ["--crops", "0"], "crops"),
        ("score", ["--ratio", "r"], "ratio"),
        ("weight-map", ["--ratio", "r"], "ratio"),
        ("pretrain", ["--block-size", "0"], "block_size"),
        ("make-toy", ["--count", "0"], "count"),
        ("make-toy", ["--count", "-2"], "count"),
        ("make-toy", ["--size", "0"], "size"),
        ("make-toy", ["--kind", "foo"], "kind"),
        ("train", ["--lr", "-1"], "lr"),
        ("train", ["--weight-decay", "-5"], "weight_decay"),
        ("pretrain", ["--lr", "-1"], "lr"),
        ("train", ["--depth", "-1"], "depth"),
    ])
    def test_exits_2_without_writing(self, command, flags, name, toyset, trained_ckpt,
                                     tmp_path, capsys):
        out = tmp_path / "out"
        inputs = {
            "train": ["--manifest", toyset["manifest"], *TINY_TRAIN, "--out", str(out)],
            "pretrain": ["--corpus", toyset["corpus"], "--width", "4", "--out", str(out)],
            "eval": ["--manifest", toyset["manifest"], "--ckpt", trained_ckpt,
                     "--report", str(out)],
            "score": ["--image", toyset["image"], "--ckpt", trained_ckpt,
                      "--weight-map", str(out)],
            "weight-map": ["--image", toyset["image"], "--ckpt", trained_ckpt,
                           "--out", str(out)],
            "make-toy": ["--out", str(out)],
        }[command]
        assert main([command, *inputs, *flags]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert not out.exists()

    def test_unknown_toy_kind_in_config_file_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("kind = foo\n", encoding="utf-8")
        out = tmp_path / "gen"
        assert main(["make-toy", "--out", str(out), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "kind" in err and "Traceback" not in err
        assert not out.exists()


class TestOutputDirectory:
    """An output file in a directory that does not exist, or one that is a
    directory, is an input error found before any input is read: exit 2
    naming the path, nothing but the run header printed."""

    OUTPUTS = [("train", "--out"), ("pretrain", "--out"), ("weight-map", "--out"),
               ("eval", "--report"), ("score", "--weight-map")]

    @staticmethod
    def _exits_2_with_header_only(command, given, flag, out, capsys) -> str:
        inputs = {
            "train": ["--manifest", given["manifest"], *TINY_TRAIN],
            "pretrain": ["--corpus", given["corpus"], "--width", "4", "--epochs", "2"],
            "weight-map": ["--image", given["image"], "--ckpt", given["ckpt"]],
            "eval": ["--manifest", given["manifest"], "--ckpt", given["ckpt"]],
            "score": ["--image", given["image"], "--ckpt", given["ckpt"]],
        }[command]
        assert main([command, *inputs, flag, out]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        # no epoch, best val, final, wrote or parameter-count line
        assert all(line.startswith("# ") for line in captured.out.splitlines())
        assert "# parameters" not in captured.out
        return captured.err

    @pytest.mark.parametrize("inputs_exist", [True, False], ids=["inputs", "no-inputs"])
    @pytest.mark.parametrize("command,flag", OUTPUTS)
    def test_exits_2_before_the_work(self, command, flag, inputs_exist, toyset, trained_ckpt,
                                     tmp_path, capsys):
        # with no inputs, an error about the output shows none was read first
        given = {**toyset, "ckpt": trained_ckpt} if inputs_exist else {
            name: str(tmp_path / "missing" / name) for name in ("manifest", "corpus", "image",
                                                                 "ckpt")}
        out = str(tmp_path / "nodir" / "file")
        err = self._exits_2_with_header_only(command, given, flag, out, capsys)
        assert f"cannot write {out}" in err
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.parametrize("command,flag", OUTPUTS)
    def test_existing_directory_exits_2_before_the_work(self, command, flag, toyset,
                                                        trained_ckpt, tmp_path, capsys):
        out = tmp_path / "taken"
        out.mkdir()
        err = self._exits_2_with_header_only(command, {**toyset, "ckpt": trained_ckpt}, flag,
                                             str(out), capsys)
        assert f"cannot write {out}: it is a directory" in err
        assert list(out.iterdir()) == []

    def test_make_toy_creates_its_directory(self, tmp_path, capsys):
        out = tmp_path / "new" / "toy"
        assert main(["make-toy", "--out", str(out), "--count", "2", "--size", "8"]) == 0
        assert (out / "manifest.csv").exists()


class TestNonUtf8Input:
    """A manifest or config file that is not UTF-8 is an input error naming
    the file and the byte offset."""

    def test_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "bad.csv"
        manifest.write_bytes(b"path,mos\n\xff.pgm,0.5\n")
        out = tmp_path / "m.ckpt"
        assert main(["train", "--manifest", str(manifest), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err and "offset 9" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "make-toy"])
    def test_config_file(self, command, toyset, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 1\n# \xff\n")
        out = tmp_path / "out"
        inputs = {"train": ["--manifest", toyset["manifest"], "--out", str(out)],
                  "make-toy": ["--out", str(out)]}[command]
        assert main([command, *inputs, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "bad.cfg" in err and "offset 11" in err and "Traceback" not in err
        assert not out.exists()


def _sample_text(caster) -> str:
    """Text that the setting's caster accepts."""
    for text in ("3", "0.5"):
        try:
            caster(text)
            return text
        except ValueError:
            pass
    raise AssertionError(f"no sample text for {caster}")


class TestSettingsTable:
    """Every setting a subcommand's table entry lists works as a flag and as a
    config-file key, with one caster; settings it does not list are unknown."""

    TAKEN = [(c, k) for c, cmd in COMMANDS.items() for k in cmd.settings]
    NOT_TAKEN = [(c, k) for c, cmd in COMMANDS.items() for k in SETTINGS
                 if k not in cmd.settings]

    def test_every_model_config_field_is_a_setting(self):
        # ratio_mode is set by --ratio r; init_std is library-only
        assert {f.name for f in fields(ModelConfig)} - set(SETTINGS) == {"ratio_mode", "init_std"}

    @staticmethod
    def _run(command, extra, tmp_path, capsys):
        paths = [arg for name, (required, _) in COMMANDS[command].paths.items() if required
                 for arg in ("--" + name.replace("_", "-"), str(tmp_path / "missing" / name))]
        code = main([command, *paths, *extra])
        captured = capsys.readouterr()
        header = [line for line in captured.out.splitlines() if line.startswith("# ")]
        return code, header, captured.err

    def _both_sources(self, command, key, text, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n", encoding="utf-8")
        from_flag = self._run(command, ["--" + key.replace("_", "-"), text], tmp_path, capsys)
        from_file = self._run(command, ["--config", str(cfg)], tmp_path, capsys)
        return from_flag, from_file

    @pytest.mark.parametrize("command,key", TAKEN)
    def test_flag_and_config_key_give_same_header(self, command, key, tmp_path, capsys):
        text = _sample_text(COMMANDS[command].row(key)[0])
        from_flag, from_file = self._both_sources(command, key, text, tmp_path, capsys)
        assert from_flag[1] == from_file[1]
        value = COMMANDS[command].row(key)[0](text)
        assert f"# {key} = {value}" in from_flag[1]
        assert from_flag[0] == from_file[0]

    @pytest.mark.parametrize("command,key", [(c, k) for c, k in TAKEN
                                             if COMMANDS[c].row(k)[0] is not str])
    def test_flag_and_config_key_give_same_error(self, command, key, tmp_path, capsys):
        from_flag, from_file = self._both_sources(command, key, "?", tmp_path, capsys)
        assert from_flag[0] == from_file[0] == 2
        assert from_flag[2] == from_file[2]
        assert key in from_flag[2] and "Traceback" not in from_flag[2]

    @pytest.mark.parametrize("command,key", NOT_TAKEN)
    def test_setting_not_taken_is_unknown(self, command, key, tmp_path, capsys):
        text = _sample_text(SETTINGS[key][0])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n", encoding="utf-8")
        code, header, err = self._run(command, ["--config", str(cfg)], tmp_path, capsys)
        assert code == 2 and "unknown config file keys" in err and key in err
        assert not header
        code, _, err = self._run(command, ["--" + key.replace("_", "-"), text], tmp_path, capsys)
        assert code == 2 and "unrecognized arguments" in err


class TestConfigFileAndSeeds:
    def test_config_file_values_used_and_flags_override(self, toyset, trained_ckpt,
                                                        tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\ncrops = 1\nseed = 5\n", encoding="utf-8")
        assert main(["eval", "--manifest", toyset["manifest"], "--ckpt", trained_ckpt,
                     "--config", str(cfg)]) == 0
        header = capsys.readouterr().out
        assert "# crops = 1" in header and "# seed = 5" in header
        assert main(["eval", "--manifest", toyset["manifest"], "--ckpt", trained_ckpt,
                     "--config", str(cfg), "--crops", "3"]) == 0
        assert "# crops = 3" in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, toyset, trained_ckpt, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n", encoding="utf-8")
        assert main(["eval", "--manifest", toyset["manifest"], "--ckpt", trained_ckpt,
                     "--config", str(cfg)]) == 2

    def test_env_seed_default(self, toyset, trained_ckpt, capsys, monkeypatch):
        monkeypatch.setenv("CSIQA_SEED", "42")
        assert main(["eval", "--manifest", toyset["manifest"], "--ckpt", trained_ckpt,
                     "--crops", "1"]) == 0
        assert "# seed = 42" in capsys.readouterr().out

    def test_env_seed_not_an_integer_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CSIQA_SEED", "abc")
        assert main(["make-toy", "--out", str(tmp_path / "gen"), "--count", "4"]) == 2
        assert "CSIQA_SEED" in capsys.readouterr().err
        assert not (tmp_path / "gen").exists()

    def test_bad_env_seed_ignored_when_seed_flag_given(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CSIQA_SEED", "abc")
        out = tmp_path / "gen"
        assert main(["make-toy", "--out", str(out), "--count", "4", "--size", "16",
                     "--seed", "3"]) == 0
        assert "# seed = 3" in capsys.readouterr().out
        assert (out / "manifest.csv").exists()

    @pytest.mark.parametrize("command", ["pretrain", "train", "make-toy"])
    def test_negative_seed_flag_exits_2(self, command, toyset, tmp_path, capsys):
        out = tmp_path / "out"
        inputs = {"pretrain": ["--corpus", toyset["corpus"], "--epochs", "1"],
                  "train": ["--manifest", toyset["manifest"], *TINY_TRAIN],
                  "make-toy": ["--count", "4"]}[command]
        assert main([command, *inputs, "--out", str(out), "--seed", "-5"]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "--seed" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_env_seed_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CSIQA_SEED", "-5")
        assert main(["make-toy", "--out", str(tmp_path / "gen"), "--count", "4"]) == 2
        assert "CSIQA_SEED" in capsys.readouterr().err
        assert not (tmp_path / "gen").exists()

    def test_make_toy_subcommand(self, tmp_path, capsys):
        out = str(tmp_path / "gen")
        assert main(["make-toy", "--out", out, "--count", "4", "--size", "16"]) == 0
        assert os.path.exists(os.path.join(out, "manifest.csv"))
