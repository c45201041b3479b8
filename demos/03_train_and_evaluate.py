"""Train the full quality model on the synthetic toy dataset and evaluate it.

Generates 32 toy images whose opinion scores fall monotonically with the
amount of added noise, trains the full-embedding variant at a fixed 10%
sampling ratio, and reports Pearson/Spearman correlations on the held-out
test split, including cross-ratio evaluation.
"""

import tempfile

from csiqa.data import generate_toy_dataset, read_manifest
from csiqa.pipeline import ModelConfig, TrainSettings, evaluate, train

workdir = tempfile.mkdtemp(prefix="csiqa_demo_")
manifest = generate_toy_dataset(workdir, n_images=32, size=40, seed=23)
records = read_manifest(manifest)
print(f"toy dataset: 32 images in {workdir}")

cfg = ModelConfig(variant="cl-iqa", ratio_mode="fixed", ratio=0.1, seed=0)
settings = TrainSettings(batch=8, lr=7e-4, weight_decay=1e-5, steps=300)
print("training cl-iqa at ratio 0.1 for 300 steps ...")
result = train(records, cfg, settings)
print(f"loss: {result.history['loss'][0]:.4f} -> {result.history['loss'][-1]:.4f}")
if result.history["best_step"]:
    print(f"best validation checkpoint at step {result.history['best_step']}")

for ratio in (0.1, 0.5):
    out = evaluate(records, (result.best or result).state, ratio=ratio, n_crops=5)
    print(f"test split at ratio {ratio}: PLCC={out['plcc']:.3f} SRCC={out['srcc']:.3f}")
