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
from .embedding import (
    EmbeddingMatrix,
    PositionalTable,
    add_position,
    bypass_embed,
    embed,
    init_embedding,
    init_positions,
)
from .encoder import (
    EncoderConfig,
    ParamGroup,
    RefineConfig,
    encode,
    init_encoder_params,
    init_refiner_params,
    window_refine,
)
from .errors import (
    CheckpointFormatError,
    ContractError,
    CorrelationUndefinedError,
    NumericalDivergenceError,
)
from .head import init_head_params, score as head_score
from .metrics import plcc, srcc
from .sampling import (
    CsnetReconstructor,
    SamplingMatrix,
    init_reconstructor,
    measurement_count,
    random_sampling_matrix,
    sample,
)

VARIANTS = ("cl-iqa", "cs-iqa")
DEFAULT_RATIO_SET = (0.1, 0.2, 0.5, 1.0)


@dataclass
class ModelConfig:
    """Complete model geometry plus the training-time ratio policy.

    ``ratio_mode`` is "fixed" (one ratio for training and evaluation) or
    "arbitrary" (a ratio drawn per batch from ``ratio_set``). The defaults
    are the desk-scale configuration; ``paper_scale`` returns the full-size
    geometry, which is expressible but not a test target.
    """

    variant: str = "cl-iqa"
    block_size: int = 4
    embed_dim: int = 32
    depth: int = 2
    heads: int = 4
    window: int = 2
    conv_scale: float = 0.1
    learnable_scale: bool = False
    refine_modules: int = 1
    ratio_mode: str = "fixed"
    ratio: float = 0.1
    ratio_set: tuple[float, ...] = DEFAULT_RATIO_SET
    crop_size: int = 32
    ff_hidden: int | None = None
    init_std: float = 0.02
    embed_gain: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ContractError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.ratio_mode not in ("fixed", "arbitrary"):
            raise ContractError(f"ratio_mode must be fixed or arbitrary, got {self.ratio_mode!r}")
        for name in ("block_size", "embed_dim", "heads", "window", "crop_size"):
            if getattr(self, name) < 1:
                raise ContractError(
                    f"{name} must be a positive integer, got {getattr(self, name)}")
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
        if self.ff_hidden is None:
            self.ff_hidden = 4 * self.embed_dim
        self.ratio_set = tuple(float(r) for r in self.ratio_set)
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
        return (self.ratio,) if self.ratio_mode == "fixed" else self.ratio_set

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(self.depth, self.heads, self.embed_dim, self.ff_hidden)

    def refine_config(self) -> RefineConfig:
        return RefineConfig(self.window, self.conv_scale)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ratio_set"] = list(self.ratio_set)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of ``to_dict``; every field must be present, and no other key."""
        fields = set(cls.__dataclass_fields__)
        unknown, missing = sorted(set(d) - fields), sorted(fields - set(d))
        if unknown or missing:
            raise ContractError(f"model config has unknown keys {unknown}, missing keys {missing}")
        d = dict(d)
        d["ratio_set"] = tuple(d["ratio_set"])
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
        read through to ``params``."""
        return ParamGroup(self.params, name + ".")

    def parameters(self) -> list[nm.Tensor]:
        return list(self.params.values())

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()


def init_model(cfg: ModelConfig) -> ModelState:
    """Seeded parameter initialization in a fixed draw order."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    params: dict[str, nm.Tensor] = {}
    params["csm.phi"] = random_sampling_matrix(cfg.block_size, rng).matrix
    if cfg.variant == "cl-iqa":
        params["aem.embed"] = init_embedding(
            cfg.embed_dim, cfg.block_size, rng, gain=cfg.embed_gain).matrix
    params["aem.pos"] = init_positions(cfg.tokens_per_crop, cfg.embed_dim, rng).table
    for k, v in init_encoder_params(cfg.encoder_config(), rng, std=cfg.init_std).items():
        params[f"enc.{k}"] = v
    for j in range(cfg.refine_modules):
        refb = init_refiner_params(
            cfg.embed_dim, cfg.ff_hidden, cfg.refine_config(), rng,
            learnable_scale=cfg.learnable_scale, std=cfg.init_std)
        for k, v in refb.items():
            params[f"refine{j}.{k}"] = v
    for k, v in init_head_params(cfg.embed_dim, rng, std=cfg.init_std).items():
        params[f"head.{k}"] = v
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
        tokens = embed(EmbeddingMatrix(state.params["aem.embed"], cfg.embed_dim), meas)
    else:
        tokens = bypass_embed(meas, cfg.embed_dim)
    tokens = nm.reshape(tokens, (meas.batch, meas.grid.num_blocks, cfg.embed_dim))
    x = add_position(tokens, PositionalTable(state.params["aem.pos"]))
    x = encode(x, state.group("enc"), cfg.encoder_config())
    for j in range(cfg.refine_modules):
        x = window_refine(x, meas.grid, state.group(f"refine{j}"),
                          cfg.heads, cfg.refine_config())
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
    val_crops: int = 3

    def __post_init__(self):
        if self.batch < 1:
            raise ContractError(f"batch must be a positive integer, got {self.batch}")
        for name in ("steps", "epochs", "lr", "weight_decay"):
            value = getattr(self, name)
            # NaN passes: a non-finite update is a divergence, not an input error
            if value is not None and value < 0:
                raise ContractError(f"{name} must be non-negative, got {value}")
        if self.val_crops < 1:
            raise ContractError(f"val_crops must be a positive integer, got {self.val_crops}")

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


def _snapshot(state: ModelState, opt: nm.AdamState, rng, history) -> dict:
    return {
        "params": {k: v.data.copy() for k, v in state.params.items()},
        "opt_step": opt.step,
        "opt_m": [m.copy() for m in opt.m] if opt.m is not None else None,
        "opt_v": [v.copy() for v in opt.v] if opt.v is not None else None,
        "rng_state": rng.bit_generator.state,
        "history": json.loads(json.dumps(history)),
    }


def train(
    records: list[ManifestRecord],
    cfg: ModelConfig,
    settings: TrainSettings | None = None,
    resume: "LoadedCheckpoint | None" = None,
    csm_checkpoint=None,
) -> TrainResult:
    """Fit a model on the seeded training split of a manifest.

    Each step draws a batch without replacement, one fresh random crop per
    drawn image, and (in arbitrary mode) one ratio for the whole batch; all
    randomness comes from a single checkpointed stream, so training resumed
    from a checkpoint continues bit-identically. Returns both the final
    state and the best-on-validation state (lowest validation MSE). A
    non-finite loss raises ``NumericalDivergenceError`` before its update,
    and so does a non-finite parameter after the last update, by name.
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
    else:
        state = init_model(cfg)
        opt = nm.AdamState()
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
        history = {"loss": [], "val": [], "best_step": None}
        if csm_checkpoint is not None:
            matrix, _, _, _ = load_pretrained_csm(csm_checkpoint)
            if matrix.block_size != cfg.block_size:
                raise ContractError(
                    f"pretrained sampling matrix has block size {matrix.block_size}, "
                    f"model uses {cfg.block_size}")
            state.params["csm.phi"].data[...] = matrix.matrix.data

    params = state.parameters()
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
            ratio = cfg.ratio_set[int(rng.integers(len(cfg.ratio_set)))]
        else:
            ratio = cfg.ratio
        crops = np.stack([random_crop(train_imgs[i], cfg.crop_size, rng) for i in batch])
        mos = nm.Tensor([targets[i] for i in batch])
        state.zero_grads()
        with nm.GradTape() as tape:
            scores, _ = forward(crops, state, ratio)
            diff = nm.sub(scores, mos)
            loss = nm.mean_all(nm.mul(diff, diff))
        value = loss.item()
        if not math.isfinite(value):
            raise NumericalDivergenceError(f"non-finite loss at step {step + 1}")
        tape.backward(loss)
        nm.adam_step(params, [p.grad for p in params], opt,
                     lr=settings.lr, weight_decay=settings.weight_decay)
        history["loss"].append(value)

        if val_every and val_recs and (step + 1) % val_every == 0:
            val_scores = predict_records(val_recs, state, ratio=None if cfg.ratio_mode == "fixed" else cfg.ratio_set[0],
                                         n_crops=settings.val_crops, images=val_imgs)
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
                best = _snapshot(state, opt, rng, history)

    for name, p in state.params.items():
        if not np.isfinite(p.data).all():
            raise NumericalDivergenceError(
                f"parameter {name} is non-finite after step {len(history['loss'])}")
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


def _param_blobs(blobs: dict[str, bytes], prefix: str, reference: dict[str, nm.Tensor],
                 path) -> dict[str, nm.Tensor]:
    """The parameters stored under ``prefix``: exactly the names of
    ``reference``, each with its shape."""
    extra = sorted(n for n in blobs if n.startswith(prefix) and n[len(prefix):] not in reference)
    if extra:
        raise CheckpointFormatError(f"{path}: unexpected parameter blobs {extra}")
    return {name: nm.Tensor(_array_blob(blobs, prefix + name, p.shape, path), requires_grad=True)
            for name, p in reference.items()}


def load_model(path) -> LoadedCheckpoint:
    """Read a model checkpoint, checking its config and every parameter's
    name and shape against a freshly initialized model of that config."""
    blobs = dict(read_checkpoint(path))
    meta = _meta_blob(blobs, "model", path)
    try:
        cfg = ModelConfig.from_dict(meta.get("config"))
        reference = init_model(cfg)
    except (TypeError, ValueError) as e:  # ContractError is a ValueError
        raise CheckpointFormatError(f"{path}: invalid model config: {e}") from None
    state = ModelState(cfg, _param_blobs(blobs, "param/", reference.params, path))

    optimizer = None
    if "opt/step" in blobs:
        optimizer = nm.AdamState()
        try:
            (optimizer.step,) = struct.unpack("<Q", blobs["opt/step"])
        except struct.error:
            raise CheckpointFormatError(
                f"{path}: blob opt/step is not an 8-byte step count") from None
        optimizer.m = [_array_blob(blobs, f"opt/m/{n}", p.shape, path)
                       for n, p in reference.params.items()]
        optimizer.v = [_array_blob(blobs, f"opt/v/{n}", p.shape, path)
                       for n, p in reference.params.items()]

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
    every parameter's name and shape against a freshly initialized
    reconstructor of that geometry."""
    blobs = dict(read_checkpoint(path))
    meta = _meta_blob(blobs, "csm-pretrain", path)
    missing = [k for k in ("block_size", "ratio", "width") if k not in meta]
    if missing:
        raise CheckpointFormatError(f"{path}: meta/config is missing keys {missing}")
    block_size = meta["block_size"]
    try:
        reference = init_reconstructor(block_size, meta["ratio"], np.random.default_rng(0),
                                       width=meta["width"])
    except (TypeError, ValueError) as e:  # ContractError is a ValueError
        raise CheckpointFormatError(f"{path}: invalid pretraining config: {e}") from None
    side = block_size * block_size
    phi = _array_blob(blobs, "param/csm.phi", (side, side), path)
    matrix = SamplingMatrix(nm.Tensor(phi, requires_grad=True), block_size)
    rec = CsnetReconstructor(block_size, meta["ratio"], meta["width"],
                             _param_blobs(blobs, "param/csnet.", reference.params, path))
    history = _json_blob(blobs, "meta/history", path) if "meta/history" in blobs else {}
    return matrix, rec, meta, history
