"""Command-line interface: pretraining, training, evaluation, scoring.

Settings resolve in order: command-line flag, then config-file entry
(``key=value`` lines, ``#`` comments), then the built-in default; every
effective setting is echoed in a run header so logged runs are
self-describing. Exit codes: 0 success, 2 usage or input error, 3
numerical failure (non-finite loss).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .data import center_crop, generate_toy_dataset, read_manifest, split_records
from .errors import CheckpointError, ContractError, NumericalDivergenceError
from .head import weight_map
from .pipeline import (
    DEFAULT_RATIO_SET,
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
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ContractError(f"cannot read config file {path}: {e}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractError(f"{path} line {lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def resolve_settings(args, spec: dict[str, tuple]) -> dict:
    """Merge flag > config file > default for every known setting.

    A callable default (the env-var seed) is called only when neither the
    flag nor the config file sets the key.
    """
    file_cfg = parse_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = set(file_cfg) - set(spec)
    if unknown:
        raise ContractError(f"unknown config file keys: {sorted(unknown)}")
    resolved = {}
    for key, (default, caster) in spec.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in file_cfg:
            try:
                resolved[key] = caster(file_cfg[key])
            except ValueError:
                raise ContractError(
                    f"config file value for {key} is not a valid "
                    f"{caster.__name__}: {file_cfg[key]!r}") from None
        else:
            resolved[key] = default() if callable(default) else default
    return resolved


def print_header(command: str, settings: dict) -> None:
    print(f"# csiqa {command}")
    for key in sorted(settings):
        print(f"# {key} = {settings[key]}")


def _parse_ratio(text: str):
    """'r' selects arbitrary-ratio mode; otherwise a float in (0, 1]."""
    if text == "r":
        return "r"
    try:
        value = float(text)
    except ValueError:
        raise ContractError(f"ratio must be a number in (0, 1] or 'r', got {text!r}") from None
    if not 0.0 < value <= 1.0:
        raise ContractError(f"ratio must be in (0, 1], got {value}")
    return value


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

def cmd_pretrain(args) -> int:
    spec = {
        "ratio": (0.25, float),
        "epochs": (200, int),
        "lr": (1e-2, float),
        "block_size": (4, int),
        "width": (16, int),
        "seed": (_env_seed, int),
    }
    s = resolve_settings(args, spec)
    ratio = _parse_ratio(str(s["ratio"]))
    if ratio == "r":
        raise ContractError("pretraining needs a fixed ratio, not 'r'")
    s["corpus"], s["out"], s["ratio"] = args.corpus, args.out, ratio
    print_header("pretrain", s)
    corpus = _load_corpus(args.corpus)
    matrix, rec, losses = pretrain_csm(
        corpus, ratio, epochs=s["epochs"], lr=s["lr"],
        block_size=s["block_size"], width=s["width"], seed=s["seed"])
    for i, loss in enumerate(losses):
        if i % max(1, len(losses) // 10) == 0 or i == len(losses) - 1:
            print(f"epoch {i}: mse={loss:.6g}")
    save_pretrained_csm(args.out, matrix, rec, ratio, losses)
    if losses:
        print(f"final mse={losses[-1]:.6g} (initial {losses[0]:.6g})")
    print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    spec = {
        "variant": ("cl-iqa", str),
        "ratio": (0.1, str),
        "block_size": (4, int),
        "embed_dim": (32, int),
        "depth": (2, int),
        "heads": (4, int),
        "window": (2, int),
        "crop_size": (32, int),
        "embed_gain": (1.0, float),
        "batch": (8, int),
        "lr": (1e-5, float),
        "weight_decay": (1e-5, float),
        "epochs": (100, int),
        "steps": (0, int),
        "seed": (_env_seed, int),
    }
    s = resolve_settings(args, spec)
    ratio = _parse_ratio(str(s["ratio"]))
    s["manifest"], s["out"], s["csm"] = args.manifest, args.out, args.csm
    print_header("train", s)
    records = read_manifest(args.manifest)
    cfg = ModelConfig(
        variant=s["variant"],
        block_size=s["block_size"],
        embed_dim=s["embed_dim"],
        depth=s["depth"],
        heads=s["heads"],
        window=s["window"],
        crop_size=s["crop_size"],
        embed_gain=s["embed_gain"],
        ratio_mode="arbitrary" if ratio == "r" else "fixed",
        ratio=0.1 if ratio == "r" else ratio,
        ratio_set=DEFAULT_RATIO_SET,
        seed=s["seed"],
    )
    settings = TrainSettings(
        batch=s["batch"], lr=s["lr"], weight_decay=s["weight_decay"],
        steps=s["steps"] or None, epochs=None if s["steps"] else s["epochs"])
    result = train(records, cfg, settings, csm_checkpoint=args.csm)
    if result.history["val"]:
        best_step = result.history.get("best_step")
        best_entry = next((e for e in result.history["val"] if e["step"] == best_step), None)
        if best_entry is not None:
            rank = best_entry["srcc"]
            print(f"best val step={best_step} mse={best_entry['mse']:.6g} "
                  f"srcc={'n/a' if rank is None else f'{rank:.4f}'}")
    if result.best is not None:
        save_model(args.out, result.best_state,
                   optimizer=None, rng=None, history=result.best["history"])
    else:
        save_model(args.out, result.state, optimizer=result.optimizer,
                   rng=result.rng, history=result.history)
    print(f"final train loss={result.history['loss'][-1]:.6g}" if result.history["loss"]
          else "no training steps run")
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    spec = {
        "ratio": (None, str),
        "crops": (5, int),
        "seed": (_env_seed, int),
    }
    s = resolve_settings(args, spec)
    ratio = None if s["ratio"] is None else _parse_ratio(str(s["ratio"]))
    if ratio == "r":
        raise ContractError("evaluation needs a fixed ratio, not 'r'")
    s["manifest"], s["ckpt"], s["report"] = args.manifest, args.ckpt, args.report
    print_header("eval", s)
    records = read_manifest(args.manifest)
    loaded = load_model(args.ckpt)
    result = evaluate(records, loaded.state, ratio=ratio, n_crops=s["crops"], seed=s["seed"])
    if args.report:
        _, test = split_records(records, loaded.state.config.seed)
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("path,mos,score\n")
            for rec, sc in zip(test, result["scores"]):
                fh.write(f"{rec.path},{rec.mos!r},{sc!r}\n")
        print(f"wrote report {args.report}")
    print(f"PLCC={result['plcc']:.6f} SRCC={result['srcc']:.6f}")
    return 0


def cmd_score(args) -> int:
    spec = {
        "ratio": (None, str),
        "crops": (5, int),
        "seed": (_env_seed, int),
    }
    s = resolve_settings(args, spec)
    ratio = None if s["ratio"] is None else _parse_ratio(str(s["ratio"]))
    s["image"], s["ckpt"], s["weight_map"] = args.image, args.ckpt, args.weight_map
    print_header("score", s)
    img = read_image(args.image)
    loaded = load_model(args.ckpt)
    rng = np.random.default_rng(np.random.SeedSequence([s["seed"], 3, 0]))
    value = predict_image(img, loaded.state, ratio=ratio, n_crops=s["crops"], rng=rng)
    if args.weight_map:
        _write_weight_map(img, loaded.state, ratio, args.weight_map)
        print(f"wrote weight map {args.weight_map}")
    print(f"{value:.10g}")
    return 0


def cmd_weight_map(args) -> int:
    spec = {
        "ratio": (None, str),
        "seed": (_env_seed, int),
    }
    s = resolve_settings(args, spec)
    ratio = None if s["ratio"] is None else _parse_ratio(str(s["ratio"]))
    s["image"], s["ckpt"], s["out"] = args.image, args.ckpt, args.out
    print_header("weight-map", s)
    img = read_image(args.image)
    loaded = load_model(args.ckpt)
    _write_weight_map(img, loaded.state, ratio, args.out)
    print(f"wrote weight map {args.out}")
    return 0


def _write_weight_map(img, state, ratio, out_path) -> None:
    """Render per-token weights for the deterministic center crop."""
    crop = center_crop(img, state.config.crop_size)
    _, diag = forward(crop, state, ratio)
    grid_img = weight_map(diag["token_weights"], diag["grid"])
    write_pgm(out_path, grid_img)


def cmd_make_toy(args) -> int:
    spec = {
        "count": (32, int),
        "size": (40, int),
        "kind": ("noise", str),
        "seed": (_env_seed, int),
    }
    s = resolve_settings(args, spec)
    s["out"] = args.out
    print_header("make-toy", s)
    manifest = generate_toy_dataset(args.out, n_images=s["count"], size=s["size"],
                                    seed=s["seed"], kind=s["kind"])
    print(f"wrote {manifest}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csiqa",
        description="No-reference image quality assessment from compressed block measurements.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value settings file; flags override it")
        p.add_argument("--seed", type=int, help="RNG seed (default: env CSIQA_SEED or 0)")

    p = sub.add_parser("pretrain", help="pretrain the sampling matrix on an image corpus")
    p.add_argument("--corpus", required=True, help="directory of PGM/PPM images")
    p.add_argument("--ratio", help="sampling ratio in (0, 1]")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--block-size", dest="block_size", type=int)
    p.add_argument("--width", type=int, help="reconstructor hidden width")
    common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="train a quality model on a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--variant", choices=["cl-iqa", "cs-iqa"])
    p.add_argument("--ratio", help="sampling ratio in (0, 1], or 'r' for arbitrary")
    p.add_argument("--csm", help="pretrained sampling checkpoint to initialize from")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--block-size", dest="block_size", type=int)
    p.add_argument("--embed-dim", dest="embed_dim", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--crop-size", dest="crop_size", type=int)
    p.add_argument("--embed-gain", dest="embed_gain", type=float)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest's test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--ratio", help="override the evaluation sampling ratio")
    p.add_argument("--crops", type=int)
    p.add_argument("--report", help="write per-image scores to this CSV")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("score", help="score one image")
    p.add_argument("--image", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--ratio")
    p.add_argument("--crops", type=int)
    p.add_argument("--weight-map", dest="weight_map", help="also write the token weight map (PGM)")
    common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("weight-map", help="write the token weight map for one image")
    p.add_argument("--image", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ratio")
    common(p)
    p.set_defaults(func=cmd_weight_map)

    p = sub.add_parser("make-toy", help="generate the synthetic toy dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int)
    p.add_argument("--size", type=int)
    p.add_argument("--kind", choices=["noise", "blur"])
    common(p)
    p.set_defaults(func=cmd_make_toy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except NumericalDivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ContractError, CheckpointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
