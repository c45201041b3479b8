"""End-to-end model assembly, training, evaluation, and persistence.

Two variants share one backbone: the full model embeds measurements with
the learnable truncatable matrix, the bypass variant zero-pads measurements
straight into the token width. Training follows the standard protocol
(seeded 8:2 split with a validation subset carved from the training side,
batches of random crops, Adam on mean squared error against opinion
scores); evaluation averages each image's score over seeded random crops
and reports Pearson and Spearman correlations on the test split.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import numerics as nm
from .checkpoint import (
    array_from_bytes,
    array_to_bytes,
    read_checkpoint,
    write_checkpoint,
)
from .data import (
    ManifestRecord,
    carve_validation,
    load_images,
    pad_to_size,
    random_crop,
    split_records,
)
from .embedding import add_position, bypass_embed, embed
from .encoder import CONV_SCALE, ParamGroup, encode, encoder_shapes, refiner_shapes, window_refine
from .errors import (
    CheckpointFormatError,
    ContractError,
    CorrelationUndefinedError,
    NumericalDivergenceError,
)
from .head import head_shapes, score as head_score
from .metrics import plcc, srcc
from .sampling import (
    CsnetReconstructor,
    SamplingMatrix,
    measurement_count,
    random_sampling_matrix,
    reconstructor_shapes,
    sample,
)

VARIANTS = ("cl-iqa", "cs-iqa")
DEFAULT_RATIO_SET = (0.1, 0.2, 0.5, 1.0)
VAL_CROPS = 3  # random crops per validation image


@dataclass
class ModelConfig:
    """Complete model geometry plus the training-time ratio policy.

    ``ratio_mode`` is "fixed" (one ratio for training and evaluation) or
    "arbitrary" (a ratio drawn per batch from ``DEFAULT_RATIO_SET``). The
    defaults are the desk-scale configuration; ``paper_scale`` returns the
    full-size geometry, which is expressible but not a test target. The
    feed-forward width (4 * embed_dim), the single refinement module and
    its conv scale are fixed in ``encoder``.
    """

    variant: str = "cl-iqa"
    block_size: int = 4
    embed_dim: int = 32
    depth: int = 2
    heads: int = 4
    window: int = 2
    learnable_scale: bool = False
    ratio_mode: str = "fixed"
    ratio: float = 0.1
    crop_size: int = 32
    init_std: float = 0.02
    embed_gain: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ContractError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.ratio_mode not in ("fixed", "arbitrary"):
            raise ContractError(f"ratio_mode must be fixed or arbitrary, got {self.ratio_mode!r}")
        for name, least in (("block_size", 1), ("embed_dim", 1), ("depth", 0), ("heads", 1),
                            ("window", 1), ("crop_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < least:
                raise ContractError(f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("init_std", "embed_gain"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ContractError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.embed_dim % self.heads:
            raise ContractError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.embed_dim % 2:
            raise ContractError(f"embed_dim must be even, got {self.embed_dim}")
        if self.crop_size % self.block_size:
            raise ContractError(
                f"crop_size {self.crop_size} not a multiple of block size {self.block_size}")
        if self.grid_side % self.window:
            raise ContractError(
                f"window {self.window} does not divide the {self.grid_side}-wide token grid")
        for r in self.active_ratios():
            if not 0.0 < r <= 1.0:
                raise ContractError(f"sampling ratio {r} outside (0, 1]")
            if self.variant == "cs-iqa":
                m = measurement_count(self.block_size, r)
                if m > self.embed_dim:
                    raise ContractError(
                        f"cs-iqa bypass cannot fit {m} measurements (ratio {r}) into "
                        f"embedding width {self.embed_dim}")

    @property
    def grid_side(self) -> int:
        return self.crop_size // self.block_size

    @property
    def tokens_per_crop(self) -> int:
        return self.grid_side * self.grid_side

    def active_ratios(self) -> tuple[float, ...]:
        return (self.ratio,) if self.ratio_mode == "fixed" else DEFAULT_RATIO_SET

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of ``to_dict``; every field must be present, and no other key."""
        fields = set(cls.__dataclass_fields__)
        unknown, missing = sorted(set(d) - fields), sorted(fields - set(d))
        if unknown or missing:
            raise ContractError(f"model config has unknown keys {unknown}, missing keys {missing}")
        return cls(**d)

    @classmethod
    def paper_scale(cls, **overrides) -> "ModelConfig":
        """Full-size geometry: 16-pixel blocks, 768-wide tokens, 12 blocks."""
        base = dict(block_size=16, embed_dim=768, depth=12, heads=12,
                    window=7, crop_size=224)
        base.update(overrides)
        return cls(**base)


@dataclass
class ModelState:
    """All trainable parameters in a stable, serialization-defining order."""

    config: ModelConfig
    params: dict[str, nm.Tensor] = field(default_factory=dict)

    def group(self, name: str) -> ParamGroup:
        """The parameters under ``name.`` (``enc``, ``refine0``, ``head``),
        read through to ``params``. The one refinement module keeps the
        ``refine0`` prefix."""
        return ParamGroup(self.params, name + ".")


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in the serialization and draw order."""
    d, side = cfg.embed_dim, cfg.block_size * cfg.block_size
    shapes = {"csm.phi": (side, side)}
    if cfg.variant == "cl-iqa":
        shapes["aem.embed"] = (d, side)
    shapes["aem.pos"] = (cfg.tokens_per_crop, d)
    for prefix, part in (("enc.", encoder_shapes(cfg.depth, d)),
                         ("refine0.", refiner_shapes(d, cfg.learnable_scale)),
                         ("head.", head_shapes(d))):
        shapes.update({prefix + name: shape for name, shape in part.items()})
    return shapes


def init_model(cfg: ModelConfig) -> ModelState:
    """Seeded parameter initialization in the order of ``param_shapes``.

    The sampling matrix is orthogonal, the embedding Gaussian at
    embed_gain/B, the positional table truncated-normal at 0.02 and a
    learnable conv scale starts at ``CONV_SCALE``; every other tensor
    follows ``numerics.init_params`` at ``init_std``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    shapes = param_shapes(cfg)
    params = {"csm.phi": random_sampling_matrix(cfg.block_size, rng).matrix}
    if "aem.embed" in shapes:
        params["aem.embed"] = nm.Tensor(rng.normal(
            scale=cfg.embed_gain / cfg.block_size, size=shapes["aem.embed"]), requires_grad=True)
    params["aem.pos"] = nm.Tensor(nm.trunc_normal(rng, shapes["aem.pos"], std=0.02),
                                  requires_grad=True)
    params.update(nm.init_params({k: v for k, v in shapes.items() if k not in params}, rng,
                                 cfg.init_std))
    if cfg.learnable_scale:
        params["refine0.conv.alpha"].data[...] = CONV_SCALE
    return ModelState(cfg, params)


def forward(imgs: np.ndarray, state: ModelState, ratio: float | None = None):
    """Score a batch of same-sized single-channel images in [0, 1].

    ``imgs`` is (N, H, W), or one (H, W) image as the N=1 case. Returns
    ((N,) score tensor, diagnostics dict); the diagnostics hold (N, L)
    per-token scores and weights. Images are padded to a multiple of the
    block size; their token count must fit the positional table and their
    token grid must be divisible by the attention window.
    """
    cfg = state.config
    if ratio is None:
        if cfg.ratio_mode != "fixed":
            raise ContractError("arbitrary-ratio model needs an explicit ratio at inference")
        ratio = cfg.ratio
    matrix = SamplingMatrix(state.params["csm.phi"], cfg.block_size)
    meas = sample(matrix, imgs, ratio)
    if cfg.variant == "cl-iqa":
        tokens = embed(state.params["aem.embed"], meas)
    else:
        tokens = bypass_embed(meas, cfg.embed_dim)
    tokens = nm.reshape(tokens, (meas.batch, meas.grid.num_blocks, cfg.embed_dim))
    x = add_position(tokens, state.params["aem.pos"])
    x = encode(x, state.group("enc"), cfg.depth, cfg.heads)
    x = window_refine(x, meas.grid, state.group("refine0"), cfg.heads, cfg.window)
    pooled, token_scores, token_weights = head_score(x, state.group("head"))
    diag = {
        "ratio": float(ratio),
        "measurements_per_block": meas.measurement_length,
        "grid": meas.grid,
        "token_scores": token_scores,
        "token_weights": token_weights,
    }
    return pooled, diag


# ---------------------------------------------------------------------------
# Prediction and evaluation
# ---------------------------------------------------------------------------

def predict_image(
    img: np.ndarray,
    state: ModelState,
    ratio: float | None = None,
    n_crops: int = 5,
    rng: np.random.Generator | None = None,
) -> float:
    """Mean score over seeded random crops (the five-crop protocol).

    The crops are drawn in order from ``rng`` and scored as one batched
    forward; their scores are summed in crop order.
    """
    if n_crops < 1:
        raise ContractError(f"crops must be a positive integer, got {n_crops}")
    cfg = state.config
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3]))
    img = pad_to_size(np.asarray(img, dtype=np.float64), cfg.crop_size, cfg.crop_size)
    crops = np.stack([random_crop(img, cfg.crop_size, rng) for _ in range(n_crops)])
    pooled, _ = forward(crops, state, ratio)
    total = 0.0
    for score in pooled.data.tolist():  # not sum(): it compensates from Python 3.12
        total += score
    return total / n_crops


def predict_records(
    records: list[ManifestRecord],
    state: ModelState,
    ratio: float | None = None,
    n_crops: int = 5,
    seed: int | None = None,
    images: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Five-crop scores for a list of records, one RNG stream per image."""
    if seed is None:
        seed = state.config.seed
    if images is None:
        images = load_images(records)
    scores = np.empty(len(records))
    for i, img in enumerate(images):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3, i]))
        scores[i] = predict_image(img, state, ratio, n_crops, rng)
    return scores


def evaluate(
    records: list[ManifestRecord],
    state: ModelState,
    ratio: float | None = None,
    n_crops: int = 5,
    seed: int | None = None,
) -> dict:
    """Correlations on the seeded test split of a full manifest."""
    _, test = split_records(records, state.config.seed)
    scores = predict_records(test, state, ratio, n_crops, seed)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise NumericalDivergenceError(
            f"{bad.size} of {len(test)} test images scored non-finite, "
            f"the first {test[bad[0]].path}")
    mos = np.array([r.mos for r in test])
    return {
        "plcc": plcc(scores, mos),
        "srcc": srcc(scores, mos),
        "scores": scores,
        "mos": mos,
        "n_images": len(test),
    }


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainSettings:
    """Optimization protocol: batches of 8, Adam, coupled weight decay.

    Runs ``steps`` updates when set, else ``epochs`` passes over the data.
    """

    batch: int = 8
    lr: float = 1e-5
    weight_decay: float = 1e-5
    steps: int | None = None
    epochs: int = 100
    val_every: int | None = None  # 0 disables validation; None = once per epoch

    def __post_init__(self):
        if self.batch < 1:
            raise ContractError(f"batch must be a positive integer, got {self.batch}")
        for name in ("steps", "epochs", "lr", "weight_decay"):
            value = getattr(self, name)
            # NaN passes: a non-finite update is a divergence, not an input error
            if value is not None and value < 0:
                raise ContractError(f"{name} must be non-negative, got {value}")

    def total_steps(self, steps_per_epoch: int) -> int:
        return self.steps if self.steps is not None else self.epochs * steps_per_epoch


@dataclass
class TrainResult:
    state: ModelState
    best_state: ModelState
    history: dict
    optimizer: nm.AdamState
    rng: np.random.Generator
    best: dict | None


def train(
    records: list[ManifestRecord],
    cfg: ModelConfig,
    settings: TrainSettings | None = None,
    resume: "LoadedCheckpoint | None" = None,
    csm: SamplingMatrix | None = None,
) -> TrainResult:
    """Fit a model on the seeded training split of a manifest.

    Each step draws a batch without replacement, one fresh random crop per
    drawn image, and (in arbitrary mode) one ratio for the whole batch; all
    randomness comes from a single checkpointed stream, so training resumed
    from a checkpoint continues bit-identically; a resumed run must be given
    the config it was trained with. A fresh run takes its sampling matrix from
    ``csm`` when one is given. Returns both the final state and the
    best-on-validation state (lowest validation MSE), whose parameter arrays
    and history up to it ``best`` holds. A non-finite loss raises
    ``NumericalDivergenceError`` before its update, and so does a non-finite
    parameter after the last update, by name.
    """
    settings = settings or TrainSettings()
    train_recs, _ = split_records(records, cfg.seed)
    train_recs, val_recs = carve_validation(train_recs, cfg.seed)
    if not train_recs:
        raise ContractError("training split is empty")
    train_imgs = load_images(train_recs)
    val_imgs = load_images(val_recs) if val_recs else []
    targets = [r.mos for r in train_recs]

    if resume is not None:
        state, opt, rng = resume.state, resume.optimizer, resume.rng
        history = resume.history
        if opt is None or rng is None:
            raise ContractError("checkpoint has no optimizer/RNG state to resume from")
        if not all(isinstance(history.get(k), list) for k in ("loss", "val")):
            raise ContractError("checkpoint has no loss and validation history to resume from")
        saved, given = state.config.to_dict(), cfg.to_dict()
        changed = [f"{k}={saved[k]!r} (given {given[k]!r})" for k in saved if saved[k] != given[k]]
        if changed:
            raise ContractError(f"resumed run was trained with {', '.join(changed)}")
        if csm is not None:
            raise ContractError("csm= is for a fresh run; a resumed run keeps its own matrix")
    else:
        state = init_model(cfg)
        opt = nm.AdamState()
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
        history = {"loss": [], "val": [], "best_step": None}
        if csm is not None:
            if csm.block_size != cfg.block_size:
                raise ContractError(
                    f"pretrained sampling matrix has block size {csm.block_size}, "
                    f"model uses {cfg.block_size}")
            state.params["csm.phi"].data[...] = csm.matrix.data

    steps_per_epoch = max(1, math.ceil(len(train_recs) / settings.batch))
    val_every = settings.val_every
    if val_every is None:
        val_every = steps_per_epoch
    total = settings.total_steps(steps_per_epoch)
    done = len(history["loss"])

    best = None
    best_mse = math.inf
    for entry in history["val"]:
        if entry["mse"] < best_mse:
            best_mse = entry["mse"]

    for step in range(done, total):
        batch = rng.choice(len(train_recs), size=min(settings.batch, len(train_recs)),
                           replace=False)
        if cfg.ratio_mode == "arbitrary":
            ratio = DEFAULT_RATIO_SET[int(rng.integers(len(DEFAULT_RATIO_SET)))]
        else:
            ratio = cfg.ratio
        crops = np.stack([random_crop(train_imgs[i], cfg.crop_size, rng) for i in batch])
        mos = nm.Tensor([targets[i] for i in batch])

        def loss_of():
            diff = nm.sub(forward(crops, state, ratio)[0], mos)
            return nm.mean_all(nm.mul(diff, diff))

        history["loss"].append(nm.descend(state.params, loss_of, opt, settings.lr,
                                          settings.weight_decay, f"step {step + 1}"))

        if val_every and val_recs and (step + 1) % val_every == 0:
            val_ratio = None if cfg.ratio_mode == "fixed" else DEFAULT_RATIO_SET[0]
            val_scores = predict_records(val_recs, state, ratio=val_ratio,
                                         n_crops=VAL_CROPS, images=val_imgs)
            val_mos = np.array([r.mos for r in val_recs])
            mse = float(np.mean((val_scores - val_mos) ** 2))
            try:
                rank = srcc(val_scores, val_mos)
            except CorrelationUndefinedError:
                rank = None
            history["val"].append({"step": step + 1, "mse": mse, "srcc": rank})
            if mse < best_mse:
                best_mse = mse
                history["best_step"] = step + 1
                best = {"params": {k: v.data.copy() for k, v in state.params.items()},
                        "history": json.loads(json.dumps(history))}

    nm.check_finite(state.params, f"step {len(history['loss'])}")
    best_state = state
    if best is not None:
        best_state = ModelState(
            replace(cfg),
            {k: nm.Tensor(v.copy(), requires_grad=True) for k, v in best["params"].items()})
    return TrainResult(state, best_state, history, opt, rng, best)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass
class LoadedCheckpoint:
    state: ModelState
    optimizer: nm.AdamState | None
    rng: np.random.Generator | None
    history: dict


def save_model(
    path,
    state: ModelState,
    optimizer: nm.AdamState | None = None,
    rng: np.random.Generator | None = None,
    history: dict | None = None,
) -> None:
    blobs: list[tuple[str, bytes]] = []
    meta = {"kind": "model", "config": state.config.to_dict()}
    blobs.append(("meta/config", _json_bytes(meta)))
    for name, tensor in state.params.items():
        blobs.append((f"param/{name}", array_to_bytes(tensor.data)))
    if optimizer is not None and optimizer.m is not None:
        blobs.append(("opt/step", struct.pack("<Q", optimizer.step)))
        for name, m in zip(state.params.keys(), optimizer.m):
            blobs.append((f"opt/m/{name}", array_to_bytes(m)))
        for name, v in zip(state.params.keys(), optimizer.v):
            blobs.append((f"opt/v/{name}", array_to_bytes(v)))
    if rng is not None:
        st = rng.bit_generator.state
        payload = {
            "bit_generator": st["bit_generator"],
            "state": {k: int(v) for k, v in st["state"].items()},
            "has_uint32": int(st["has_uint32"]),
            "uinteger": int(st["uinteger"]),
        }
        blobs.append(("rng/train", _json_bytes(payload)))
    blobs.append(("meta/history", _json_bytes(history if history is not None else {})))
    write_checkpoint(path, blobs)


def _json_blob(blobs: dict[str, bytes], name: str, path):
    try:
        return json.loads(blobs[name].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointFormatError(f"{path}: blob {name} is not valid JSON: {e}") from None


def _meta_blob(blobs: dict[str, bytes], kind: str, path) -> dict:
    """The ``meta/config`` object, which must declare checkpoint ``kind``."""
    if "meta/config" not in blobs:
        raise CheckpointFormatError(f"{path}: missing meta/config blob")
    meta = _json_blob(blobs, "meta/config", path)
    found = meta.get("kind") if isinstance(meta, dict) else None
    if found != kind:
        raise CheckpointFormatError(f"{path}: checkpoint kind {found!r} is not {kind!r}")
    return meta


def _array_blob(blobs: dict[str, bytes], name: str, shape: tuple[int, ...], path):
    if name not in blobs:
        raise CheckpointFormatError(f"{path}: missing blob {name}")
    try:
        data = array_from_bytes(blobs[name])
    except CheckpointFormatError as e:
        raise CheckpointFormatError(f"{path}: blob {name}: {e}") from None
    if data.shape != shape:
        raise CheckpointFormatError(
            f"{path}: blob {name} has shape {data.shape}, the config needs {shape}")
    return data


def _param_blobs(blobs: dict[str, bytes], prefix: str, shapes: dict[str, tuple[int, ...]],
                 path) -> dict[str, nm.Tensor]:
    """The parameters stored under ``prefix``: exactly the names of
    ``shapes``, each with its shape."""
    extra = sorted(n for n in blobs if n.startswith(prefix) and n[len(prefix):] not in shapes)
    if extra:
        raise CheckpointFormatError(f"{path}: unexpected parameter blobs {extra}")
    return {name: nm.Tensor(_array_blob(blobs, prefix + name, shape, path), requires_grad=True)
            for name, shape in shapes.items()}


def load_model(path) -> LoadedCheckpoint:
    """Read a model checkpoint, checking its config and every parameter's
    name and shape against ``param_shapes`` of that config."""
    blobs = dict(read_checkpoint(path))
    meta = _meta_blob(blobs, "model", path)
    try:
        cfg = ModelConfig.from_dict(meta.get("config"))
        shapes = param_shapes(cfg)
    except (TypeError, ValueError) as e:  # ContractError is a ValueError
        raise CheckpointFormatError(f"{path}: invalid model config: {e}") from None
    state = ModelState(cfg, _param_blobs(blobs, "param/", shapes, path))

    optimizer = None
    if "opt/step" in blobs:
        optimizer = nm.AdamState()
        try:
            (optimizer.step,) = struct.unpack("<Q", blobs["opt/step"])
        except struct.error:
            raise CheckpointFormatError(
                f"{path}: blob opt/step is not an 8-byte step count") from None
        optimizer.m = [_array_blob(blobs, f"opt/m/{n}", s, path) for n, s in shapes.items()]
        optimizer.v = [_array_blob(blobs, f"opt/v/{n}", s, path) for n, s in shapes.items()]

    rng = None
    if "rng/train" in blobs:
        payload = _json_blob(blobs, "rng/train", path)
        bit_gen = np.random.PCG64()
        try:
            bit_gen.state = payload
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointFormatError(
                f"{path}: blob rng/train is not a PCG64 state: {e!r}") from None
        rng = np.random.Generator(bit_gen)

    history = _json_blob(blobs, "meta/history", path) if "meta/history" in blobs else {}
    return LoadedCheckpoint(state, optimizer, rng, history)


def save_pretrained_csm(path, matrix, reconstructor, ratio: float, losses) -> None:
    """Checkpoint restricted to the sampling module's keys."""
    meta = {
        "kind": "csm-pretrain",
        "block_size": matrix.block_size,
        "ratio": ratio,
        "width": reconstructor.width,
    }
    blobs = [("meta/config", _json_bytes(meta)),
             ("param/csm.phi", array_to_bytes(matrix.matrix.data))]
    for name, tensor in reconstructor.params.items():
        blobs.append((f"param/csnet.{name}", array_to_bytes(tensor.data)))
    blobs.append(("meta/history", _json_bytes({"loss": list(losses)})))
    write_checkpoint(path, blobs)


def load_pretrained_csm(path):
    """Read a pretrained sampling checkpoint, checking its meta keys and
    every parameter's name and shape against ``reconstructor_shapes`` of
    that geometry."""
    blobs = dict(read_checkpoint(path))
    meta = _meta_blob(blobs, "csm-pretrain", path)
    missing = [k for k in ("block_size", "ratio", "width") if k not in meta]
    if missing:
        raise CheckpointFormatError(f"{path}: meta/config is missing keys {missing}")
    block_size = meta["block_size"]
    try:
        shapes = reconstructor_shapes(block_size, meta["ratio"], meta["width"])
    except (TypeError, ValueError) as e:  # ContractError is a ValueError
        raise CheckpointFormatError(f"{path}: invalid pretraining config: {e}") from None
    side = block_size * block_size
    params = _param_blobs(blobs, "param/", {"csm.phi": (side, side),
                                            **{f"csnet.{n}": s for n, s in shapes.items()}}, path)
    matrix = SamplingMatrix(params.pop("csm.phi"), block_size)
    rec = CsnetReconstructor(block_size, meta["ratio"], meta["width"],
                             {n.removeprefix("csnet."): t for n, t in params.items()})
    history = _json_blob(blobs, "meta/history", path) if "meta/history" in blobs else {}
    return matrix, rec, meta, history
