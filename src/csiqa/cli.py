"""Command-line interface: pretraining, training, evaluation, scoring.

Each setting's help is declared once in ``SETTINGS`` and each subcommand
once in ``COMMANDS``; ``build_parser`` makes every flag from those tables.
Settings resolve flag > config-file entry (``key=value`` lines, ``#``
comments) > ``CSIQA_SEED`` for the seed > the subcommand's default, and
each text is checked by its ``errors.KINDS`` kind before any input is read;
an error names the setting and its source. Every effective setting is
echoed in a run header so logged runs are self-describing. Exit codes: 0
success, 2 usage or input error, 3 numerical failure (a non-finite loss,
score or weight map).
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from .data import center_crop, generate_toy_dataset, read_manifest, read_utf8
from .errors import KINDS, CheckpointError, ContractError, Kind, NumericalDivergenceError
from .head import weight_map
from .pipeline import (
    ModelConfig,
    TrainSettings,
    evaluate,
    forward,
    load_model,
    load_pretrained_csm,
    param_shapes,
    predict_image,
    save_model,
    save_pretrained_csm,
    train,
)
from .pnm import read_image, write_pgm
from .sampling import pretrain_csm


def parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = read_utf8(path)
    except OSError as e:
        raise ContractError(f"cannot read config file {path}: {e}") from None
    lines = io.StringIO(text, newline=None).readlines()  # universal newlines, as open() gives
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractError(f"{path} line {lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


_RATIO_OR_R = Kind(f"{KINDS['ratio'].words} or 'r'", lambda v: v == "r" or KINDS["ratio"].test(v),
                   lambda text: "r" if text == "r" else float(text))

# name -> help; the flag is --name with "-" for "_", the config-file key the name
SETTINGS = {
    "variant": "cl-iqa or cs-iqa",
    "ratio": "sampling ratio in (0, 1]",
    "block_size": "sampling block side in pixels",
    "embed_dim": "token width",
    "depth": "encoder blocks",
    "heads": "attention heads",
    "window": "refinement window side in tokens",
    "crop_size": "crop side in pixels",
    "embed_gain": "embedding output gain",
    "batch": "crops per training batch",
    "lr": "Adam learning rate",
    "weight_decay": "coupled weight decay",
    "epochs": "passes over the data",
    "steps": "optimizer steps; 0 trains for --epochs",
    "width": "reconstructor hidden width",
    "crops": "random crops averaged per image",
    "count": "number of images",
    "size": "image side in pixels",
    "kind": "noise or blur",
    "seed": "RNG seed (default: env CSIQA_SEED or 0)",
}


class Command(NamedTuple):
    """One subcommand: the settings it takes with their defaults, its path
    flags (name -> (required, help); flag-only, not config keys) and the
    one naming the file it writes after its work, if any."""

    run: Callable[[dict], int]
    help: str
    settings: dict
    paths: dict
    output: str | None  # checked to be a file in an existing directory before the work
    rows: dict = {}  # (kind, help) rows this subcommand replaces

    def row(self, key: str) -> tuple[Kind, str]:
        return self.rows.get(key) or (KINDS[key], SETTINGS[key])


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def resolve_settings(args) -> dict:
    """Merge flag > config file > ``CSIQA_SEED`` (the seed only) > default
    for every setting the subcommand takes, then add its path flags as given."""
    command = COMMANDS[args.command]
    file_cfg = parse_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - set(command.settings)
    if unknown:
        raise ContractError(f"unknown config file keys: {sorted(unknown)}")
    resolved = {}
    for key, default in command.settings.items():
        text, source = getattr(args, key), _flag(key)
        if text is None:
            text, source = file_cfg.get(key), f"config file {args.config}"
        if text is None and key == "seed":
            text, source = os.environ.get("CSIQA_SEED"), "CSIQA_SEED"
        try:
            resolved[key] = default if text is None else command.row(key)[0].cast(key, text)
        except ContractError as e:
            raise ContractError(f"{e} (from {source})") from None
    resolved.update((name, getattr(args, name)) for name in command.paths)
    return resolved


def print_header(command: str, settings: dict) -> None:
    print(f"# csiqa {command}")
    for key in sorted(settings):
        print(f"# {key} = {settings[key]}")


def _load_corpus(directory) -> list:
    if not os.path.isdir(directory):
        raise ContractError(f"corpus directory {directory} does not exist")
    names = sorted(n for n in os.listdir(directory)
                   if n.lower().endswith((".pgm", ".ppm")))
    images = []
    for name in names:
        images.append(read_image(os.path.join(directory, name)))
    if not images:
        raise ContractError(f"corpus directory {directory} has no readable PGM/PPM images")
    return images


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_pretrain(s: dict) -> int:
    corpus = _load_corpus(s["corpus"])
    matrix, rec, losses = pretrain_csm(
        corpus, s["ratio"], epochs=s["epochs"], lr=s["lr"],
        block_size=s["block_size"], width=s["width"], seed=s["seed"])
    for i, loss in enumerate(losses):
        if i % max(1, len(losses) // 10) == 0 or i == len(losses) - 1:
            print(f"epoch {i}: mse={loss:.6g}")
    save_pretrained_csm(s["out"], matrix, rec, losses)
    if losses:
        print(f"final mse={losses[-1]:.6g} (initial {losses[0]:.6g})")
    print(f"wrote {s['out']}")
    return 0


_MODEL_KEYS = ("variant", "ratio", "block_size", "embed_dim", "depth", "heads",
               "window", "crop_size", "embed_gain")
_OPTIMIZER_KEYS = ("batch", "lr", "weight_decay", "epochs")


def cmd_train(s: dict) -> int:
    records = read_manifest(s["manifest"])
    model = {k: s[k] for k in _MODEL_KEYS}
    if model["ratio"] == "r":
        model.update(ratio_mode="arbitrary", ratio=ModelConfig.ratio)
    cfg = ModelConfig(**model, seed=s["seed"])
    settings = TrainSettings(**{k: s[k] for k in _OPTIMIZER_KEYS}, steps=s["steps"] or None)
    count = sum(math.prod(shape) for shape in param_shapes(cfg).values())
    print(f"# parameters = {count} ({8 * count} bytes)")
    csm = None
    if s["csm"] is not None:
        csm, csm_rec, _ = load_pretrained_csm(s["csm"])
    result = train(records, cfg, settings, csm=csm)
    if csm is not None:
        print(f"# initialized sampling matrix from {s['csm']} "
              f"(pretrained at ratio {csm_rec.ratio})")
    if result.best is not None:
        best = result.best.history["val"][-1]
        rank = best["srcc"]
        print(f"best val step={best['step']} mse={best['mse']:.6g} "
              f"srcc={'n/a' if rank is None else f'{rank:.4f}'}")
    saved = result.best or result
    save_model(s["out"], saved.state, saved.optimizer, saved.rng, saved.history)
    print(f"final train loss={result.history['loss'][-1]:.6g}" if result.history["loss"]
          else "no training steps run")
    print(f"wrote {s['out']}")
    return 0


def cmd_eval(s: dict) -> int:
    records = read_manifest(s["manifest"])
    loaded = load_model(s["ckpt"])
    result = evaluate(records, loaded.state, ratio=s["ratio"], n_crops=s["crops"], seed=s["seed"])
    if s["report"]:
        with open(s["report"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write("path,mos,score\n")
            for rec, sc in zip(result["records"], result["scores"]):
                fh.write(f"{rec.path},{rec.mos!r},{float(sc)!r}\n")
        print(f"wrote report {s['report']}")
    print(f"PLCC={result['plcc']:.6f} SRCC={result['srcc']:.6f}")
    return 0


def cmd_score(s: dict) -> int:
    img = read_image(s["image"])
    loaded = load_model(s["ckpt"])
    rng = np.random.default_rng(np.random.SeedSequence([s["seed"], 3, 0]))
    value = predict_image(img, loaded.state, ratio=s["ratio"], n_crops=s["crops"], rng=rng)
    if not math.isfinite(value):
        raise NumericalDivergenceError(f"{s['image']} scored non-finite ({value})")
    if s["weight_map"]:
        _write_weight_map(img, loaded.state, s["ratio"], s["weight_map"])
        print(f"wrote weight map {s['weight_map']}")
    print(f"{value:.10g}")
    return 0


def cmd_weight_map(s: dict) -> int:
    img = read_image(s["image"])
    loaded = load_model(s["ckpt"])
    _write_weight_map(img, loaded.state, s["ratio"], s["out"])
    print(f"wrote weight map {s['out']}")
    return 0


def _write_weight_map(img, state, ratio, out_path) -> None:
    """Render per-token weights for the deterministic center crop."""
    crop = center_crop(img, state.config.crop_size)
    _, diag = forward(crop, state, ratio)
    if not np.isfinite(diag["token_weights"]).all():
        raise NumericalDivergenceError("the token weights are non-finite")
    write_pgm(out_path, weight_map(diag["token_weights"], diag["grid"]))


def cmd_make_toy(s: dict) -> int:
    manifest = generate_toy_dataset(s["out"], n_images=s["count"], size=s["size"],
                                    seed=s["seed"], kind=s["kind"])
    print(f"wrote {manifest}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "pretrain": Command(
        cmd_pretrain, "pretrain the sampling matrix on an image corpus",
        {"ratio": 0.25, "epochs": 200, "lr": 1e-2, "block_size": 4, "width": 16,
         "seed": 0},
        {"corpus": (True, "directory of PGM/PPM images"),
         "out": (True, "output checkpoint path")}, "out"),
    "train": Command(
        cmd_train, "train a quality model on a manifest",
        {**{k: getattr(ModelConfig, k) for k in _MODEL_KEYS},
         **{k: getattr(TrainSettings, k) for k in _OPTIMIZER_KEYS},
         "steps": 0, "seed": 0},
        {"manifest": (True, None),
         "csm": (False, "pretrained sampling checkpoint to initialize from"),
         "out": (True, None)}, "out",
        rows={"ratio": (_RATIO_OR_R, "sampling ratio in (0, 1], or 'r' for arbitrary")}),
    "eval": Command(
        cmd_eval, "evaluate a checkpoint on a manifest's test split",
        {"ratio": None, "crops": 5, "seed": 0},
        {"manifest": (True, None), "ckpt": (True, None),
         "report": (False, "write per-image scores to this CSV")}, "report"),
    "score": Command(
        cmd_score, "score one image",
        {"ratio": None, "crops": 5, "seed": 0},
        {"image": (True, None), "ckpt": (True, None),
         "weight_map": (False, "also write the token weight map (PGM)")}, "weight_map"),
    "weight-map": Command(
        cmd_weight_map, "write the token weight map for one image",
        {"ratio": None, "seed": 0},
        {"image": (True, None), "ckpt": (True, None), "out": (True, None)}, "out"),
    "make-toy": Command(
        cmd_make_toy, "generate the synthetic toy dataset",
        {"count": 32, "size": 40, "kind": "noise", "seed": 0},
        {"out": (True, "output directory")}, None),  # it creates --out
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csiqa",
        description="No-reference image quality assessment from compressed block measurements.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for path, (required, help_text) in command.paths.items():
            p.add_argument(_flag(path), dest=path, required=required, help=help_text)
        for key in command.settings:
            p.add_argument(_flag(key), dest=key, help=command.row(key)[1])
        p.add_argument("--config", help="key=value settings file; flags override it")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        settings = resolve_settings(args)
        print_header(args.command, settings)
        out = settings.get(COMMANDS[args.command].output)
        if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
            raise ContractError(f"cannot write {out}: no directory {os.path.dirname(out)}")
        if out is not None and os.path.isdir(out):
            raise ContractError(f"cannot write {out}: it is a directory")
        return COMMANDS[args.command].run(settings)
    except NumericalDivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ContractError, CheckpointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
