"""Command-line interface: pretraining, training, evaluation, scoring.

Each setting is declared once in ``SETTINGS`` and each subcommand once in
``COMMANDS``; ``build_parser`` makes every flag from those two tables.
Settings resolve in order: command-line flag, then config-file entry
(``key=value`` lines, ``#`` comments), then the subcommand's default; every
effective setting is echoed in a run header so logged runs are
self-describing. Exit codes: 0 success, 2 usage or input error, 3
numerical failure (a non-finite loss, score or weight map).
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from .data import center_crop, generate_toy_dataset, read_manifest, read_utf8, split_records
from .errors import CheckpointError, ContractError, NumericalDivergenceError
from .head import weight_map
from .pipeline import (
    ModelConfig,
    TrainSettings,
    evaluate,
    forward,
    load_model,
    load_pretrained_csm,
    predict_image,
    save_model,
    save_pretrained_csm,
    train,
)
from .pnm import read_image, write_pgm
from .sampling import pretrain_csm


def _env_seed() -> int:
    text = os.environ.get("CSIQA_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ContractError(f"CSIQA_SEED must be an integer, got {text!r}") from None


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


def _ratio(text: str) -> float:
    """A fixed sampling ratio in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise ValueError(text)
    return value


def _ratio_or_r(text: str):
    """'r' selects arbitrary-ratio mode; otherwise a fixed ratio."""
    return "r" if text == "r" else _ratio(text)


# One row per setting: name -> (caster, help). Its flag is --name with "-"
# for "_", its config-file key is the name, and flag text and file text both
# go through the caster.
SETTINGS = {
    "variant": (str, "cl-iqa or cs-iqa"),
    "ratio": (_ratio, "sampling ratio in (0, 1]"),
    "block_size": (int, "sampling block side in pixels"),
    "embed_dim": (int, "token width"),
    "depth": (int, "encoder blocks"),
    "heads": (int, "attention heads"),
    "window": (int, "refinement window side in tokens"),
    "crop_size": (int, "crop side in pixels"),
    "embed_gain": (float, "embedding output gain"),
    "batch": (int, "crops per training batch"),
    "lr": (float, "Adam learning rate"),
    "weight_decay": (float, "coupled weight decay"),
    "epochs": (int, "passes over the data"),
    "steps": (int, "optimizer steps; 0 trains for --epochs"),
    "width": (int, "reconstructor hidden width"),
    "crops": (int, "random crops averaged per image"),
    "count": (int, "number of images"),
    "size": (int, "image side in pixels"),
    "kind": (str, "noise or blur"),
    "seed": (int, "RNG seed (default: env CSIQA_SEED or 0)"),
}

_KINDS = {int: "an integer", float: "a number", _ratio: "a number in (0, 1]",
          _ratio_or_r: "a number in (0, 1] or 'r'"}


class Command(NamedTuple):
    """One subcommand: the settings it takes with their defaults, and its
    path flags (name -> (required, help); flag-only, not config keys)."""

    run: Callable[[dict], int]
    help: str
    settings: dict
    paths: dict
    rows: dict = {}  # SETTINGS rows this subcommand replaces

    def row(self, key: str) -> tuple:
        return self.rows.get(key) or SETTINGS[key]


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def resolve_settings(args) -> dict:
    """Merge flag > config file > default for every setting the subcommand
    takes, then add its path flags as given.

    A callable default (the env-var seed) is called only when neither the
    flag nor the config file sets the key.
    """
    command = COMMANDS[args.command]
    file_cfg = parse_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - set(command.settings)
    if unknown:
        raise ContractError(f"unknown config file keys: {sorted(unknown)}")
    resolved = {}
    for key, default in command.settings.items():
        text = getattr(args, key)
        if text is None:
            text = file_cfg.get(key)
        if text is None:
            resolved[key] = default() if callable(default) else default
            continue
        caster = command.row(key)[0]
        try:
            resolved[key] = caster(text)
        except ValueError:
            raise ContractError(f"{key} must be {_KINDS[caster]}, got {text!r}") from None
    if resolved["seed"] < 0:
        source = ("--seed" if args.seed is not None
                  else f"config file {args.config}" if "seed" in file_cfg else "CSIQA_SEED")
        raise ContractError(f"seed must be non-negative, got {resolved['seed']} (from {source})")
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
    save_pretrained_csm(s["out"], matrix, rec, s["ratio"], losses)
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
    csm = None
    if s["csm"] is not None:
        csm, _, csm_meta, _ = load_pretrained_csm(s["csm"])
    result = train(records, cfg, settings, csm=csm)
    if csm is not None:
        print(f"# initialized sampling matrix from {s['csm']} "
              f"(pretrained at ratio {csm_meta['ratio']})")
    if result.history["val"]:
        best_step = result.history.get("best_step")
        best_entry = next((e for e in result.history["val"] if e["step"] == best_step), None)
        if best_entry is not None:
            rank = best_entry["srcc"]
            print(f"best val step={best_step} mse={best_entry['mse']:.6g} "
                  f"srcc={'n/a' if rank is None else f'{rank:.4f}'}")
    if result.best is not None:
        save_model(s["out"], result.best_state,
                   optimizer=None, rng=None, history=result.best["history"])
    else:
        save_model(s["out"], result.state, optimizer=result.optimizer,
                   rng=result.rng, history=result.history)
    print(f"final train loss={result.history['loss'][-1]:.6g}" if result.history["loss"]
          else "no training steps run")
    print(f"wrote {s['out']}")
    return 0


def cmd_eval(s: dict) -> int:
    records = read_manifest(s["manifest"])
    loaded = load_model(s["ckpt"])
    result = evaluate(records, loaded.state, ratio=s["ratio"], n_crops=s["crops"], seed=s["seed"])
    if s["report"]:
        _, test = split_records(records, loaded.state.config.seed)
        with open(s["report"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write("path,mos,score\n")
            for rec, sc in zip(test, result["scores"]):
                fh.write(f"{rec.path},{rec.mos!r},{sc!r}\n")
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
         "seed": _env_seed},
        {"corpus": (True, "directory of PGM/PPM images"),
         "out": (True, "output checkpoint path")}),
    "train": Command(
        cmd_train, "train a quality model on a manifest",
        {**{k: getattr(ModelConfig, k) for k in _MODEL_KEYS},
         **{k: getattr(TrainSettings, k) for k in _OPTIMIZER_KEYS},
         "steps": 0, "seed": _env_seed},
        {"manifest": (True, None),
         "csm": (False, "pretrained sampling checkpoint to initialize from"),
         "out": (True, None)},
        rows={"ratio": (_ratio_or_r, "sampling ratio in (0, 1], or 'r' for arbitrary")}),
    "eval": Command(
        cmd_eval, "evaluate a checkpoint on a manifest's test split",
        {"ratio": None, "crops": 5, "seed": _env_seed},
        {"manifest": (True, None), "ckpt": (True, None),
         "report": (False, "write per-image scores to this CSV")}),
    "score": Command(
        cmd_score, "score one image",
        {"ratio": None, "crops": 5, "seed": _env_seed},
        {"image": (True, None), "ckpt": (True, None),
         "weight_map": (False, "also write the token weight map (PGM)")}),
    "weight-map": Command(
        cmd_weight_map, "write the token weight map for one image",
        {"ratio": None, "seed": _env_seed},
        {"image": (True, None), "ckpt": (True, None), "out": (True, None)}),
    "make-toy": Command(
        cmd_make_toy, "generate the synthetic toy dataset",
        {"count": 32, "size": 40, "kind": "noise", "seed": _env_seed},
        {"out": (True, "output directory")}),
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
        return COMMANDS[args.command].run(settings)
    except NumericalDivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ContractError, CheckpointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
