"""Visualize which image regions the weighting branch emphasizes.

Adds white Gaussian noise to the right half of a clean image at three
signal-to-noise ratios (10, 1, 0.1), scores each corrupted image, and
writes the per-token weight map of each as a small PGM image.
"""

import os
import tempfile

import numpy as np

from csiqa.data import generate_toy_dataset, make_clean_pattern, read_manifest
from csiqa.head import weight_map
from csiqa.pipeline import ModelConfig, TrainSettings, forward, train
from csiqa.pnm import write_pgm

workdir = tempfile.mkdtemp(prefix="csiqa_maps_")
manifest = generate_toy_dataset(os.path.join(workdir, "data"), n_images=32, size=40, seed=23)
records = read_manifest(manifest)

cfg = ModelConfig(variant="cl-iqa", ratio_mode="fixed", ratio=0.1, seed=0)
print("training a small model first (200 steps) ...")
result = train(records, cfg, TrainSettings(batch=8, lr=7e-4, steps=200))
state = (result.best or result).state

rng = np.random.default_rng(3)
clean = make_clean_pattern(32, rng)
signal_std = clean.std()

for snr in (10.0, 1.0, 0.1):
    noisy = clean.copy()
    sigma = signal_std / np.sqrt(snr)
    noisy[:, 16:] = np.clip(
        noisy[:, 16:] + rng.normal(scale=sigma, size=(32, 16)), 0.0, 1.0)
    score, diag = forward(noisy, state, 0.1)
    grid_map = weight_map(diag["token_weights"], diag["grid"])
    left, right = grid_map[:, :4].mean(), grid_map[:, 4:].mean()
    out = os.path.join(workdir, f"weights_snr_{snr}.pgm")
    write_pgm(out, grid_map)
    print(f"SNR {snr:>4}: score={score.item():+.3f}  "
          f"mean weight left={left:.2f} right={right:.2f}  -> {out}")
print(f"maps written to {workdir}")
