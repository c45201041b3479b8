"""Compressed sampling of image blocks with a learnable, truncatable matrix.

An image is split into non-overlapping B x B blocks; each flattened block is
multiplied by the first ceil(ratio * B^2) rows of a learnable B^2 x B^2 base
matrix, yielding one short measurement vector per block. The matrix is a
plain ``numerics.Tensor`` (the model's ``csm.phi``) and B is read off its
shape. A small reconstruction network (linear per-block expansion plus a
3-layer convolutional refiner over each image's (H*W, 1) pixel grid)
supports pretraining the matrix on a corpus so it starts from a
reconstruction-aware initialization; a matrix that does
not require grad stays frozen while the reconstructor trains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .data import pad_bottom_right
from .errors import ContractError, ShapeError
from .gridops import conv3x3

# Guard against float fuzz like 0.3*100 = 30.000000000000004 before ceiling.
_RATIO_FUZZ = 1e-9


def measurement_count(block_size: int, ratio: float) -> int:
    """Rows kept when truncating at ``ratio``: ceil(ratio * B^2), min 1."""
    if not 0.0 < ratio <= 1.0:
        raise ContractError(f"sampling ratio must be in (0, 1], got {ratio}")
    return max(1, math.ceil(ratio * block_size * block_size - _RATIO_FUZZ))


@dataclass(frozen=True)
class BlockGrid:
    """Geometry of the non-overlapping block decomposition."""

    blocks_h: int
    blocks_w: int
    block_size: int

    @property
    def num_blocks(self) -> int:
        return self.blocks_h * self.blocks_w

    @property
    def padded_shape(self) -> tuple[int, int]:
        return (self.blocks_h * self.block_size, self.blocks_w * self.block_size)


@dataclass
class MeasurementSet:
    """Per-block measurement vectors stacked into an (N*L, m) tensor.

    Rows are the blocks of N same-sized images, image by image, each in
    scan order; a single image is the N=1 case. Everything after the
    measurement (tokens, grid ops, the reconstruction) keeps N as a
    leading axis instead.
    """

    values: nm.Tensor
    grid: BlockGrid

    @property
    def measurement_length(self) -> int:
        return self.values.shape[1]

    @property
    def batch(self) -> int:
        return self.values.shape[0] // self.grid.num_blocks

    @property
    def total_scalars(self) -> int:
        return self.values.size


def block_side(matrix: nm.Tensor) -> int:
    """B of a B^2 x B^2 sampling matrix; ``ShapeError`` for any other shape."""
    b = math.isqrt(matrix.shape[0]) if len(matrix.shape) == 2 else 0
    if b < 1 or matrix.shape != (b * b, b * b):
        raise ShapeError(f"sampling matrix must be B^2 x B^2 for some B, got {matrix.shape}")
    return b


def random_sampling_matrix(block_size: int, rng: np.random.Generator) -> nm.Tensor:
    """Orthogonalized Gaussian rows scaled by 1/B.

    Orthonormal rows keep every truncation prefix well conditioned.
    """
    side = block_size * block_size
    q, _ = np.linalg.qr(rng.normal(size=(side, side)))
    return nm.Tensor(q.T / block_size, requires_grad=True)


def gaussian_sampling_matrix(block_size: int, rng: np.random.Generator) -> nm.Tensor:
    """Plain i.i.d. Gaussian matrix at the same row scale; baseline only."""
    side = block_size * block_size
    return nm.Tensor(rng.normal(scale=1.0 / block_size, size=(side, side)), requires_grad=True)


def pad_to_blocks(img: np.ndarray, block_size: int) -> np.ndarray:
    """Pad bottom/right so both extents are multiples of B (``pad_bottom_right``).

    Takes one (H, W) image or a stack of N same-sized images (N, H, W).
    """
    if block_size <= 0:
        raise ContractError(f"block size must be positive, got {block_size}")
    img = np.asarray(img, dtype=np.float64)
    if img.ndim not in (2, 3):
        raise ShapeError(
            f"expected a single-channel (H, W) image or (N, H, W) stack, got shape {img.shape}")
    h, w = img.shape[-2:]
    return pad_bottom_right(img, (-h) % block_size, (-w) % block_size)


def split_blocks(img: np.ndarray, block_size: int) -> tuple[np.ndarray, BlockGrid]:
    """Split (padding first if needed) into row-major flattened blocks.

    Returns an (N*L, B^2) array whose rows are each image's blocks in scan
    order, with each block flattened row-major, plus the per-image grid
    geometry. A single (H, W) image gives N=1.
    """
    padded = pad_to_blocks(img, block_size)
    h, w = padded.shape[-2:]
    b = block_size
    grid = BlockGrid(h // b, w // b, b)
    blocks = (
        padded.reshape(-1, grid.blocks_h, b, grid.blocks_w, b)
        .transpose(0, 1, 3, 2, 4)
        .reshape(-1, b * b)
    )
    return np.ascontiguousarray(blocks), grid


def sample(matrix: nm.Tensor, img: np.ndarray, ratio: float) -> MeasurementSet:
    """Measure every block with the truncated matrix; differentiable in it.

    ``img`` is one (H, W) image or an (N, H, W) stack, measured as one
    (N*L, B^2) @ Phi^T product, B being ``block_side(matrix)``. Computed as
    the full-matrix product followed by a column slice so that measurements
    at a smaller ratio are bitwise a prefix of those at any larger ratio
    (the truncated-multiply order would leave that to BLAS rounding).
    """
    b = block_side(matrix)
    m = measurement_count(b, ratio)
    blocks, grid = split_blocks(img, b)
    full = nm.matmul(nm.Tensor(blocks), nm.permute(matrix, (1, 0)))
    y = nm.slice_cols(full, 0, m) if m < full.shape[1] else full
    return MeasurementSet(y, grid)


def sample_conv(matrix: nm.Tensor, img: np.ndarray, ratio: float) -> MeasurementSet:
    """Same measurements via a stride-B convolution.

    Each kept row of the matrix, reshaped B x B, slides over the padded
    image with stride B; this is the verification/acceleration route and is
    not recorded on the tape.
    """
    b = block_side(matrix)
    m = measurement_count(b, ratio)
    padded = pad_to_blocks(img, b)
    grid = BlockGrid(padded.shape[-2] // b, padded.shape[-1] // b, b)
    kernels = matrix.data[:m].reshape(m, b, b)
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (b, b), axis=(-2, -1))[..., ::b, ::b, :, :]
    y = np.einsum("...ghuv,muv->...ghm", windows, kernels, optimize=True)
    return MeasurementSet(nm.Tensor(y.reshape(-1, m)), grid)


# ---------------------------------------------------------------------------
# Reconstruction network for pretraining the sampling matrix
# ---------------------------------------------------------------------------

@dataclass
class CsnetReconstructor:
    """Linear per-block expansion plus a 3-layer convolutional refiner.

    The final refiner layer is zero-initialized, so the network starts as
    the pure linear reconstruction (an identity residual).
    """

    block_size: int
    ratio: float
    width: int
    params: dict[str, nm.Tensor] = field(default_factory=dict)

    @property
    def measurement_length(self) -> int:
        return measurement_count(self.block_size, self.ratio)


def reconstructor_shapes(block_size: int, ratio: float, width: int) -> dict[str, tuple[int, ...]]:
    """Parameter shapes of the reconstructor, in draw order."""
    for name, value in (("block_size", block_size), ("width", width)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ContractError(f"reconstructor {name} must be a positive integer, got {value!r}")
    m = measurement_count(block_size, ratio)
    side = block_size * block_size
    return {
        "init.w": (m, side), "init.b": (side,),
        "conv1.w": (9 * 1, width), "conv1.b": (width,),
        "conv2.w": (9 * width, width), "conv2.b": (width,),
        "conv3.w": (9 * width, 1), "conv3.b": (1,),
    }


def init_reconstructor(
    block_size: int, ratio: float, rng: np.random.Generator, width: int = 16
) -> CsnetReconstructor:
    """Gaussian weights at sqrt(1/fan-in), fan-in being a weight's rows;
    zero biases and a zero last layer."""
    params = {}
    for name, shape in reconstructor_shapes(block_size, ratio, width).items():
        if len(shape) == 1 or name == "conv3.w":
            data = np.zeros(shape)
        else:
            data = rng.normal(scale=math.sqrt(1.0 / shape[0]), size=shape)
        params[name] = nm.Tensor(data, requires_grad=True)
    return CsnetReconstructor(block_size, ratio, width, params)


def csnet_reconstruct(rec: CsnetReconstructor, meas: MeasurementSet) -> nm.Tensor:
    """Reconstruct the padded images from measurements; fully differentiable.

    Returns (N, H, W) for N images' measurements, (1, H, W) for one image.
    Blocks are laid back onto each image's pixel grid, (N, H*W, 1), by a
    reshape and an axis permutation, so the backward is a transposition,
    not a scatter.
    """
    if meas.grid.block_size != rec.block_size:
        raise ContractError(
            f"reconstructor block size {rec.block_size} vs measurements "
            f"{meas.grid.block_size}")
    if meas.measurement_length != rec.measurement_length:
        raise ContractError(
            f"reconstructor expects {rec.measurement_length} measurements per block, "
            f"got {meas.measurement_length}")
    grid = meas.grid
    h, w = grid.padded_shape
    b = grid.block_size
    p = rec.params
    blocks_hat = nm.affine(meas.values, p["init.w"], p["init.b"])
    blocks_hat = nm.reshape(blocks_hat, (meas.batch, grid.blocks_h, grid.blocks_w, b, b))
    pixels = nm.reshape(nm.permute(blocks_hat, (0, 1, 3, 2, 4)), (meas.batch, h * w, 1))
    x = nm.relu(conv3x3(pixels, h, w, p["conv1.w"], p["conv1.b"]))
    x = nm.relu(conv3x3(x, h, w, p["conv2.w"], p["conv2.b"]))
    residual = conv3x3(x, h, w, p["conv3.w"], p["conv3.b"])
    return nm.reshape(nm.add(pixels, residual), (meas.batch, h, w))


def _corpus_error(
    matrix: nm.Tensor, rec: CsnetReconstructor, images: list[np.ndarray], ratio: float
) -> nm.Tensor:
    """Each image's reconstruction MSE, summed in corpus order, as one op.

    The images of each shape are reconstructed as one stack.
    """
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for i, im in enumerate(images):
        by_shape.setdefault(np.shape(im), []).append(i)
    recons, diffs, means = [], [], np.empty(len(images))
    for idx in by_shape.values():
        stack = np.stack([images[i] for i in idx], dtype=np.float64)
        recon = csnet_reconstruct(rec, sample(matrix, stack, ratio))
        diff = (recon.data - pad_to_blocks(stack, rec.block_size)).reshape(len(idx), -1)
        means[idx] = (diff * diff).mean(axis=1)
        recons.append(recon)
        diffs.append(diff)
    total = np.cumsum(means)[-1]  # added one by one, not pairwise

    def backprop(g):
        for recon, diff in zip(recons, diffs):
            nm._accumulate(recon, (2.0 * ((g / diff.shape[1]) * diff)).reshape(recon.shape))

    return nm._make(np.asarray(total), recons, backprop)


def pretrain_csm(
    corpus: list[np.ndarray],
    ratio: float,
    epochs: int,
    lr: float,
    block_size: int = 4,
    width: int = 16,
    seed: int = 0,
    matrix: nm.Tensor | None = None,
) -> tuple[nm.Tensor, CsnetReconstructor, list[float]]:
    """Jointly fit the sampling matrix and reconstructor by Adam on MSE.

    One full-batch step per epoch on one tape: the images of each size are
    reconstructed as one (N, H, W) stack, sizes in order of first
    appearance. The loss is each image's MSE over its own padded (H, W),
    summed in corpus order, then scaled by 1/len(corpus). Returns the
    trained pieces plus the per-epoch loss before each step; a non-finite
    loss raises ``NumericalDivergenceError`` before its update, and so does
    a non-finite parameter after the last update, by name. The matrix
    trains exactly when it requires grad, and its updates land in the
    array passed; a matrix with ``requires_grad=False`` stays frozen
    (baseline comparisons), and the flag is never changed.
    """
    if not corpus:
        raise ContractError("pretraining corpus is empty")
    if epochs < 0:
        raise ContractError(f"pretraining epochs must be non-negative, got {epochs}")
    if lr < 0:  # NaN passes, as in TrainSettings
        raise ContractError(f"pretraining lr must be non-negative, got {lr}")
    # separate streams so paired runs share the reconstructor init exactly,
    # whether or not a frozen matrix is supplied
    matrix_rng = np.random.default_rng(np.random.SeedSequence([seed, 11, 0]))
    recon_rng = np.random.default_rng(np.random.SeedSequence([seed, 11, 1]))
    rec = init_reconstructor(block_size, ratio, recon_rng, width=width)  # checks the geometry
    if matrix is None:
        matrix = random_sampling_matrix(block_size, matrix_rng)
    if block_side(matrix) != block_size:
        raise ContractError(
            f"sampling matrix has block size {block_side(matrix)}, requested {block_size}")
    params = {"csm.phi": matrix} if matrix.requires_grad else {}
    params.update({f"csnet.{name}": t for name, t in rec.params.items()})
    scale = nm.Tensor(1.0 / len(corpus))
    state = nm.AdamState()
    losses: list[float] = []
    for epoch in range(epochs):
        losses.append(nm.descend(
            params, lambda: nm.mul(_corpus_error(matrix, rec, corpus, ratio), scale),
            state, lr, 0.0, f"pretraining epoch {epoch + 1}"))
    nm.check_finite(params, f"pretraining epoch {epochs}")
    return matrix, rec, losses


def reconstruction_mse(
    matrix: nm.Tensor, rec: CsnetReconstructor, corpus: list[np.ndarray], ratio: float
) -> float:
    """Mean reconstruction MSE of a (matrix, reconstructor) pair on a corpus."""
    if not corpus:
        raise ContractError("reconstruction corpus is empty")
    return _corpus_error(matrix, rec, corpus, ratio).item() / len(corpus)
