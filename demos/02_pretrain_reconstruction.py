"""Pretrain the sampling matrix with the reconstruction network.

Jointly fits the sampling matrix and a small reconstructor on a textured
corpus, then compares against a frozen random-Gaussian matrix whose
reconstructor was trained identically. The learned matrix should measure
the corpus better.
"""

import numpy as np

from csiqa.data import make_clean_pattern
from csiqa.sampling import (
    gaussian_sampling_matrix,
    pretrain_csm,
    reconstruction_mse,
)

corpus_rng = np.random.default_rng(42)
corpus = [make_clean_pattern(24, corpus_rng, max_frequency=6.0) for _ in range(8)]
ratio, epochs, lr = 0.25, 250, 3e-3

print(f"pretraining on {len(corpus)} textured 24x24 images at ratio {ratio} ...")
learned_m, learned_rec, losses = pretrain_csm(
    corpus, ratio, epochs=epochs, lr=lr, block_size=4, width=16, seed=0)
print(f"loss: {losses[0]:.5f} (epoch 0) -> {losses[-1]:.5f} (epoch {len(losses) - 1})")

frozen = gaussian_sampling_matrix(4, np.random.default_rng(7))
frozen.requires_grad = False
frozen_m, frozen_rec, _ = pretrain_csm(
    corpus, ratio, epochs=epochs, lr=lr, block_size=4, width=16, seed=0,
    matrix=frozen)

mse_learned = reconstruction_mse(learned_m, learned_rec, corpus, ratio)
mse_frozen = reconstruction_mse(frozen_m, frozen_rec, corpus, ratio)
print(f"reconstruction MSE, learned matrix: {mse_learned:.6f}")
print(f"reconstruction MSE, frozen random:  {mse_frozen:.6f}")
print(f"learned matrix is {mse_frozen / mse_learned:.2f}x better on this corpus")
