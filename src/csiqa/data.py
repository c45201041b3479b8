"""Dataset manifests, splits, crops, and the synthetic toy dataset.

A manifest is a UTF-8 CSV with header ``path,mos`` and LF line endings;
image paths are resolved relative to the manifest's directory. The toy
dataset generator writes smooth grayscale patterns distorted by white
Gaussian noise (or blur) whose strength spans SNRs from 10 down to 0.1,
with the opinion score a fixed monotone function of the distortion
strength.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .pnm import read_image, write_pgm


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    mos: float


def read_utf8(path) -> str:
    """A text file's contents, with no newline translation.

    Bytes that are not UTF-8 raise ``ContractError`` naming the file and
    the byte offset.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ContractError(
            f"{path}: not UTF-8 text: byte 0x{raw[e.start]:02x} at offset {e.start}") from None


def read_manifest(path) -> list[ManifestRecord]:
    """Parse a manifest; malformed rows are reported with line numbers."""
    base = os.path.dirname(os.path.abspath(path))
    lines = read_utf8(path).split("\n")
    if not lines or lines[0].strip() != "path,mos":
        raise ContractError(f"{path}: first line must be the header 'path,mos'")
    records = []
    bad = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.rsplit(",", 1)
        if len(parts) != 2 or not parts[0].strip():
            bad.append(f"line {lineno}: expected 'path,mos', got {line!r}")
            continue
        try:
            mos = float(parts[1])
        except ValueError:
            bad.append(f"line {lineno}: bad mos value {parts[1]!r}")
            continue
        if not math.isfinite(mos):
            bad.append(f"line {lineno}: mos value {parts[1]!r} is not finite")
            continue
        img_path = parts[0].strip()
        if not os.path.isabs(img_path):
            img_path = os.path.join(base, img_path)
        records.append(ManifestRecord(img_path, mos))
    if bad:
        raise ContractError(f"{path}: " + "; ".join(bad))
    if not records:
        raise ContractError(f"{path}: manifest has no records")
    return records


def write_manifest(path, records: list[ManifestRecord]) -> None:
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("path,mos\n")
        for rec in records:
            rel = os.path.relpath(rec.path, base)
            fh.write(f"{rel},{rec.mos!r}\n")


def split_records(
    records: list[ManifestRecord], seed: int
) -> tuple[list[ManifestRecord], list[ManifestRecord]]:
    """Seeded disjoint train/test split, 8:2 by count (within one)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    order = rng.permutation(len(records))
    n_train = int(round(0.8 * len(records)))
    n_train = min(max(n_train, 1), len(records) - 1) if len(records) > 1 else len(records)
    train_idx = sorted(order[:n_train])
    test_idx = sorted(order[n_train:])
    return [records[i] for i in train_idx], [records[i] for i in test_idx]


def carve_validation(
    train: list[ManifestRecord], seed: int
) -> tuple[list[ManifestRecord], list[ManifestRecord]]:
    """Split off a seeded tenth for validation (at least one record if possible)."""
    if len(train) < 2:
        return train, []
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    order = rng.permutation(len(train))
    n_val = max(1, int(round(0.1 * len(train))))
    val_idx = sorted(order[:n_val])
    keep_idx = sorted(order[n_val:])
    return [train[i] for i in keep_idx], [train[i] for i in val_idx]


# ---------------------------------------------------------------------------
# Crops and padding
# ---------------------------------------------------------------------------

def pad_to_size(img: np.ndarray, height: int, width: int) -> np.ndarray:
    """Reflect-pad bottom/right up to at least (height, width)."""
    h, w = img.shape
    ph, pw = max(0, height - h), max(0, width - w)
    if ph == 0 and pw == 0:
        return img
    mode = "reflect" if min(h, w) > 1 else "edge"
    return np.pad(img, ((0, ph), (0, pw)), mode=mode)


def random_crop(img: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Random size x size crop; images smaller than the crop are padded first."""
    img = pad_to_size(img, size, size)
    r = int(rng.integers(0, img.shape[0] - size + 1))
    c = int(rng.integers(0, img.shape[1] - size + 1))
    return img[r : r + size, c : c + size]


def center_crop(img: np.ndarray, size: int) -> np.ndarray:
    img = pad_to_size(img, size, size)
    r = (img.shape[0] - size) // 2
    c = (img.shape[1] - size) // 2
    return img[r : r + size, c : c + size]


# ---------------------------------------------------------------------------
# Synthetic toy dataset
# ---------------------------------------------------------------------------

SNR_RANGE = (0.1, 10.0)  # spans the visualization ladder 10 / 1 / 0.1
PATTERN_STD = 0.1


def make_clean_pattern(
    size: int, rng: np.random.Generator, max_frequency: float = 2.0
) -> np.ndarray:
    """Smooth sinusoidal pattern, normalized to mean 0.5, std PATTERN_STD.

    Raising max_frequency yields textured patterns whose blocks are not
    captured by a handful of generic measurements (useful as a pretraining
    corpus with exploitable structure).
    """
    yy, xx = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size), indexing="ij")
    img = np.zeros((size, size))
    for _ in range(int(rng.integers(2, 5))):
        fy, fx = rng.uniform(0.5, max_frequency, size=2)
        phase = rng.uniform(0, 2 * np.pi)
        img += rng.uniform(0.5, 1.0) * np.sin(2 * np.pi * (fy * yy + fx * xx) + phase)
    img += rng.uniform(-0.5, 0.5) * (xx - 0.5) + rng.uniform(-0.5, 0.5) * (yy - 0.5)
    img = (img - img.mean()) / (img.std() + 1e-12)
    return np.clip(0.5 + PATTERN_STD * img, 0.0, 1.0)


def distort(
    img: np.ndarray, strength: float, rng: np.random.Generator, kind: str = "noise"
) -> np.ndarray:
    """Apply noise (strength = noise sigma) or blur (strength = kernel sigma)."""
    if kind == "noise":
        return np.clip(img + rng.normal(scale=strength, size=img.shape), 0.0, 1.0)
    if kind == "blur":
        from scipy import ndimage  # imported here: scipy costs ~0.4 s and ~30 MB at import

        return ndimage.gaussian_filter(img, sigma=strength, mode="reflect")
    raise ContractError(f"unknown distortion kind {kind!r}")


def mos_from_snr(snr: float) -> float:
    """Monotone map from SNR onto [0, 1]: 0.1 -> 0, 1 -> 0.5, 10 -> 1."""
    lo, hi = np.log10(SNR_RANGE[0]), np.log10(SNR_RANGE[1])
    return float((np.log10(snr) - lo) / (hi - lo))


def generate_toy_dataset(
    out_dir,
    n_images: int = 32,
    size: int = 40,
    seed: int = 7,
    kind: str = "noise",
) -> str:
    """Write a toy IQA dataset and return the manifest path.

    Every image gets a distinct SNR, log-spaced over SNR_RANGE, so opinion
    scores are strictly monotone in the distortion strength with no ties.
    Bad arguments raise ``ContractError`` before anything is written.
    """
    if n_images < 1:
        raise ContractError(f"image count must be a positive integer, got {n_images}")
    if size < 1:
        raise ContractError(f"image size must be a positive integer, got {size}")
    if kind not in ("noise", "blur"):
        raise ContractError(f"distortion kind must be noise or blur, got {kind!r}")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    snrs = np.logspace(np.log10(SNR_RANGE[0]), np.log10(SNR_RANGE[1]), n_images)
    records = []
    for i, snr in enumerate(rng.permutation(snrs)):
        clean = make_clean_pattern(size, rng)
        if kind == "noise":
            strength = PATTERN_STD / np.sqrt(snr)
        else:
            strength = 2.0 / np.sqrt(snr)  # blur radius grows as snr falls
        img = distort(clean, float(strength), rng, kind)
        path = os.path.join(out_dir, f"toy_{i:03d}.pgm")
        write_pgm(path, img)
        records.append(ManifestRecord(path, mos_from_snr(float(snr))))
    manifest = os.path.join(out_dir, "manifest.csv")
    write_manifest(manifest, records)
    return manifest


def load_images(records: list[ManifestRecord]) -> list[np.ndarray]:
    return [read_image(rec.path) for rec in records]
