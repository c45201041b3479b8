"""End-to-end model assembly, training, evaluation, and persistence.

Two variants share one backbone: the full model embeds measurements with
the learnable truncatable matrix, the bypass variant zero-pads measurements
straight into the token width. Training follows the standard protocol
(seeded 8:2 split with a validation subset carved from the training side,
batches of random crops, Adam on mean squared error against opinion
scores); evaluation averages each image's score over seeded random crops
and reports Pearson and Spearman correlations on the test split.

Both checkpoint kinds, a model and a pretrained sampling module, have one
writer and one reader, checked against the parameter table of the file's
config: a loader accepts exactly what the writer writes (the meta keys, each
parameter, the optimizer step with both moments of every parameter or none
of them, the RNG state and a history object) and nothing else.
"""

from __future__ import annotations

import copy
import json
import math
import struct
from dataclasses import asdict, dataclass, field

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
    random_crop,
    split_records,
)
from .embedding import add_position, bypass_embed, embed
from .encoder import ParamGroup, encode, encoder_shapes, refiner_shapes, window_refine
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
    block_side,
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
    defaults are the desk-scale configuration. The feed-forward width
    (4 * embed_dim), the single refinement module and its conv scale are
    fixed in ``encoder``.
    """

    variant: str = "cl-iqa"
    block_size: int = 4
    embed_dim: int = 32
    depth: int = 2
    heads: int = 4
    window: int = 2
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
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
                    or value < least:
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
                         ("refine0.", refiner_shapes(d)),
                         ("head.", head_shapes(d))):
        shapes.update({prefix + name: shape for name, shape in part.items()})
    return shapes


def init_model(cfg: ModelConfig) -> ModelState:
    """Seeded parameter initialization in the order of ``param_shapes``.

    The sampling matrix is orthogonal, the embedding Gaussian at
    embed_gain/B and the positional table truncated-normal at 0.02; every
    other tensor follows ``numerics.init_params`` at ``init_std``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    shapes = param_shapes(cfg)
    params = {"csm.phi": random_sampling_matrix(cfg.block_size, rng)}
    if "aem.embed" in shapes:
        params["aem.embed"] = nm.Tensor(rng.normal(
            scale=cfg.embed_gain / cfg.block_size, size=shapes["aem.embed"]), requires_grad=True)
    params["aem.pos"] = nm.Tensor(nm.trunc_normal(rng, shapes["aem.pos"], std=0.02),
                                  requires_grad=True)
    params.update(nm.init_params({k: v for k, v in shapes.items() if k not in params}, rng,
                                 cfg.init_std))
    return ModelState(cfg, params)


def forward(imgs: np.ndarray, state: ModelState, ratio: float | None = None):
    """Score a batch of same-sized single-channel images in [0, 1].

    ``imgs`` is (N, H, W), or one (H, W) image as the N=1 case. Returns
    ((N,) score tensor, diagnostics dict); the diagnostics hold (N, L)
    per-token scores and weights. Images are padded to a multiple of the
    block size, and the padded token grid must be the trained
    ``grid_side`` x ``grid_side`` one, whose cells the positional table
    holds; any other raises ``ContractError``. ``predict_image`` scores an
    image of any size through crops of the trained size.
    """
    cfg = state.config
    if ratio is None:
        if cfg.ratio_mode != "fixed":
            raise ContractError("arbitrary-ratio model needs an explicit ratio at inference")
        ratio = cfg.ratio
    meas = sample(state.params["csm.phi"], imgs, ratio)
    grid, side = meas.grid, cfg.grid_side
    if (grid.blocks_h, grid.blocks_w) != (side, side):
        raise ContractError(
            f"image pads to a {grid.blocks_h}x{grid.blocks_w} token grid; the model scores "
            f"only its trained {side}x{side} grid ({cfg.crop_size}-pixel crops): "
            f"score other sizes with predict_image, which crops them")
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
    ratio: float | None,
    n_crops: int,
    rng: np.random.Generator,
) -> float:
    """Mean score over random crops of the trained size (the five-crop protocol).

    ``random_crop`` pads an image smaller than the crop. The crops are drawn
    in order from ``rng`` (``predict_records`` gives image i ``[seed, 3, i]``)
    and scored as one batched forward; their scores are summed in crop order.
    """
    if n_crops < 1:
        raise ContractError(f"crops must be a positive integer, got {n_crops}")
    size = state.config.crop_size
    img = np.asarray(img, dtype=np.float64)
    crops = np.stack([random_crop(img, size, rng) for _ in range(n_crops)])
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
    """Correlations on the seeded test split of a full manifest, with the
    test records scored, their scores and their opinion scores."""
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
        "records": test,
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
        for name in ("steps", "epochs", "val_every", "lr", "weight_decay"):
            value = getattr(self, name)
            # NaN passes: a non-finite update is a divergence, not an input error
            if value is not None and value < 0:
                raise ContractError(f"{name} must be non-negative, got {value}")

    def total_steps(self, steps_per_epoch: int) -> int:
        return self.steps if self.steps is not None else self.epochs * steps_per_epoch


@dataclass
class LoadedCheckpoint:
    """A model's training record: its parameters, the optimizer and RNG
    state to resume from (``None`` when not kept) and its history."""

    state: ModelState
    optimizer: nm.AdamState | None
    rng: np.random.Generator | None
    history: dict

    def copy(self) -> LoadedCheckpoint:
        """An exact copy that shares no array, moment, RNG or history with it."""
        params = {k: nm.Tensor(t.data.copy(), requires_grad=True)
                  for k, t in self.state.params.items()}
        return LoadedCheckpoint(ModelState(self.state.config, params),
                                *copy.deepcopy((self.optimizer, self.rng, self.history)))


@dataclass
class TrainResult(LoadedCheckpoint):
    """The final training record, plus ``best``: the best-on-validation
    parameters and the history up to them, with no optimizer or RNG.

    ``best`` covers only the validations of the ``train`` call that made
    it; it is ``None`` when none of them improved on the history's best,
    also when a resumed run's best came before the resume.
    """

    best: LoadedCheckpoint | None


def train(
    records: list[ManifestRecord],
    cfg: ModelConfig,
    settings: TrainSettings | None = None,
    resume: LoadedCheckpoint | None = None,
    csm: nm.Tensor | None = None,
) -> TrainResult:
    """Fit a model on the seeded training split of a manifest.

    Each step draws a batch without replacement, one fresh random crop per
    drawn image, and (in arbitrary mode) one ratio for the whole batch; all
    randomness comes from a single checkpointed stream, so training resumed
    from a record (a loaded checkpoint or an earlier result) continues
    bit-identically on a copy, leaving the record as it was; a resumed run
    must be given the config it was trained with. A fresh run copies its
    sampling matrix from ``csm`` when one is given; its block size must be
    the config's. Returns the final record and, as its ``best``, a snapshot
    at the lowest validation MSE seen by this call; a resumed run whose best
    validation came before the resume has no snapshot, though
    ``history["best_step"]`` still names that step.
    A non-finite loss raises ``NumericalDivergenceError`` before its update,
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
        record = resume.copy()
        state, opt, rng, history = record.state, record.optimizer, record.rng, record.history
        if opt is None or rng is None:
            raise ContractError("checkpoint has no optimizer/RNG state to resume from")
        if not all(isinstance(history.get(k), list) for k in ("loss", "val")):
            raise ContractError("checkpoint has no loss and validation history to resume from")
        bad = [f"loss[{i}] = {v!r}" for i, v in enumerate(history["loss"])
               if type(v) not in (int, float)]
        bad += [f"val[{i}] = {v!r}" for i, v in enumerate(history["val"])
                if not (isinstance(v, dict) and type(v.get("step")) is int
                        and type(v.get("mse")) in (int, float))]
        if bad:
            raise ContractError(f"checkpoint history entry {bad[0]} is not a step's record")
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
            if csm.shape != state.params["csm.phi"].shape:
                raise ContractError(
                    f"pretrained sampling matrix has block size {block_side(csm)}, "
                    f"model uses {cfg.block_size}")
            state.params["csm.phi"].data[...] = csm.data

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
                best = LoadedCheckpoint(state, None, None, history).copy()

    nm.check_finite(state.params, f"step {len(history['loss'])}")
    return TrainResult(state, opt, rng, history, best)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _param_table(meta: dict) -> dict[str, tuple[int, ...]]:
    """The parameters, by name and shape in file order, that a checkpoint's
    ``meta/config`` declares: ``param_shapes`` of a model's config, or the
    sampling matrix and ``reconstructor_shapes`` for a pretrained one."""
    if meta["kind"] == "model":
        return param_shapes(ModelConfig.from_dict(meta["config"]))
    csnet = reconstructor_shapes(meta["block_size"], meta["ratio"], meta["width"])
    side = meta["block_size"] ** 2
    return {"csm.phi": (side, side), **{f"csnet.{name}": s for name, s in csnet.items()}}


def _save(path, meta: dict, params: dict[str, nm.Tensor], history: dict,
          optimizer: nm.AdamState | None = None, rng: np.random.Generator | None = None) -> None:
    """Write ``meta/config``, ``param/<name>`` per tensor, ``opt/step`` with
    ``opt/m/<name>`` and ``opt/v/<name>`` when given an optimizer (zero
    moments, as ``adam_step`` starts them, before its first step), the RNG
    state and ``meta/history``, in that order. Tensors off the table of
    ``meta`` or a non-dict history raise ``ContractError`` before any write."""
    table = list(_param_table(meta).items())
    moments = {}
    if optimizer is not None:
        zeros = {name: np.zeros(shape) for name, shape in table}
        moments = {"opt/m": optimizer.m or zeros, "opt/v": optimizer.v or zeros}
    for group, arrays in {"param": params, **moments}.items():
        given = [(name, a.shape) for name, a in arrays.items()]
        if given != table:
            raise ContractError(
                f"{path}: {group} blobs {[e for e in given if e not in table] or given} are off "
                f"the {meta['kind']} table, which needs {[e for e in table if e not in given]}")
    if not isinstance(history, dict):
        raise ContractError(f"{path}: history must be a dict, got {type(history).__name__}")
    blobs = [("meta/config", _json_bytes(meta))]
    blobs += [(f"param/{name}", array_to_bytes(t.data)) for name, t in params.items()]
    if moments:
        blobs.append(("opt/step", struct.pack("<Q", optimizer.step)))
        blobs += [(f"{group}/{name}", array_to_bytes(a))
                  for group, arrays in moments.items() for name, a in arrays.items()]
    if rng is not None:
        blobs.append(("rng/train", _json_bytes(rng.bit_generator.state)))
    blobs.append(("meta/history", _json_bytes(history)))
    write_checkpoint(path, blobs)


def _load(path, kind: str):
    """Read a ``kind`` checkpoint as (meta, params, optimizer, rng, history),
    accepting exactly the ``meta/config`` keys and the blobs ``_save`` writes
    for the table of its config; any other key or blob, and any missing or
    malformed one, is a ``CheckpointFormatError`` naming it."""
    blobs = dict(read_checkpoint(path))

    def blob(name: str) -> bytes:
        if name not in blobs:
            raise CheckpointFormatError(f"{path}: missing blob {name}")
        return blobs[name]

    def json_blob(name: str):
        try:
            return json.loads(blob(name).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointFormatError(f"{path}: blob {name} is not valid JSON: {e}") from None

    def array_blob(name: str, shape: tuple[int, ...]) -> np.ndarray:
        payload = blob(name)
        try:
            data = array_from_bytes(payload)
        except CheckpointFormatError as e:
            raise CheckpointFormatError(f"{path}: blob {name}: {e}") from None
        if data.shape != shape:
            raise CheckpointFormatError(
                f"{path}: blob {name} has shape {data.shape}, the config needs {shape}")
        return data

    meta = json_blob("meta/config")
    found = meta.get("kind") if isinstance(meta, dict) else None
    if found != kind:
        raise CheckpointFormatError(f"{path}: checkpoint kind {found!r} is not {kind!r}")
    keys = {"kind", "config"} if kind == "model" else {"kind", "block_size", "ratio", "width"}
    unknown, missing = sorted(set(meta) - keys), sorted(keys - set(meta))
    if unknown or missing:
        raise CheckpointFormatError(
            f"{path}: meta/config has unknown keys {unknown}, missing keys {missing}")
    try:
        table = _param_table(meta)
    except (TypeError, ValueError) as e:  # ContractError is a ValueError
        label = "model" if kind == "model" else "pretraining"
        raise CheckpointFormatError(f"{path}: invalid {label} config: {e}") from None
    known = {"meta/config", "opt/step", "rng/train", "meta/history",
             *(f"{group}/{name}" for group in ("param", "opt/m", "opt/v") for name in table)}
    unknown = sorted(set(blobs) - known)
    if unknown:
        what = "parameter " if all(n.startswith("param/") for n in unknown) else ""
        raise CheckpointFormatError(f"{path}: unexpected {what}blobs {unknown}")
    params = {name: nm.Tensor(array_blob(f"param/{name}", shape), requires_grad=True)
              for name, shape in table.items()}
    optimizer = None
    if any(name.startswith("opt/") for name in blobs):
        if len(blob("opt/step")) != 8:
            raise CheckpointFormatError(f"{path}: blob opt/step is not an 8-byte step count")
        optimizer = nm.AdamState()
        (optimizer.step,) = struct.unpack("<Q", blobs["opt/step"])
        optimizer.m = {name: array_blob(f"opt/m/{name}", s) for name, s in table.items()}
        optimizer.v = {name: array_blob(f"opt/v/{name}", s) for name, s in table.items()}
    rng = None
    if "rng/train" in blobs:
        rng = np.random.Generator(np.random.PCG64())
        try:
            rng.bit_generator.state = json_blob("rng/train")
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointFormatError(
                f"{path}: blob rng/train is not a PCG64 state: {e!r}") from None
    history = json_blob("meta/history") if "meta/history" in blobs else {}
    if not isinstance(history, dict):
        raise CheckpointFormatError(f"{path}: blob meta/history is not a JSON object")
    return meta, params, optimizer, rng, history


def save_model(path, state: ModelState, optimizer: nm.AdamState | None = None,
               rng: np.random.Generator | None = None, history: dict | None = None) -> None:
    _save(path, {"kind": "model", "config": state.config.to_dict()}, state.params,
          history or {}, optimizer, rng)


def load_model(path) -> LoadedCheckpoint:
    """Read a model checkpoint (see ``_load``), a ``param_shapes`` table."""
    meta, params, optimizer, rng, history = _load(path, "model")
    return LoadedCheckpoint(ModelState(ModelConfig.from_dict(meta["config"]), params),
                            optimizer, rng, history)


def save_pretrained_csm(path, matrix, reconstructor, losses) -> None:
    """Checkpoint the sampling module at its reconstructor's block size,
    ratio and width; ``_save`` rejects a matrix of another block size."""
    meta = {"kind": "csm-pretrain", "block_size": reconstructor.block_size,
            "ratio": reconstructor.ratio, "width": reconstructor.width}
    params = {"csm.phi": matrix,
              **{f"csnet.{name}": t for name, t in reconstructor.params.items()}}
    _save(path, meta, params, {"loss": list(losses)})


def load_pretrained_csm(path) -> tuple[nm.Tensor, CsnetReconstructor, dict]:
    """Read a pretrained sampling checkpoint (see ``_load``) as (matrix,
    reconstructor, history)."""
    meta, params, _, _, history = _load(path, "csm-pretrain")
    matrix = params.pop("csm.phi")
    rec = CsnetReconstructor(meta["block_size"], meta["ratio"], meta["width"],
                             {n.removeprefix("csnet."): t for n, t in params.items()})
    return matrix, rec, history
