"""Walk through block-based compressed sampling of an image.

Shows block splitting, row truncation of the learnable sampling matrix at
several ratios, the measurement-nesting property, and the equivalence of
the matrix route with the stride-B convolution route.
"""

import numpy as np

from csiqa import numerics as nm
from csiqa.sampling import (
    measurement_count,
    random_sampling_matrix,
    sample,
    sample_conv,
    split_blocks,
)

rng = np.random.default_rng(0)

# a 20x20 image gets reflect-padded to 20x20 -> already a multiple of B=4
img = rng.random((20, 20))
blocks, grid = split_blocks(img, block_size=4)
print(f"image 20x20, block size 4 -> {grid.blocks_h}x{grid.blocks_w} grid, "
      f"{grid.num_blocks} blocks of 16 pixels")

matrix = random_sampling_matrix(4, rng)
for ratio in (0.1, 0.25, 0.5, 1.0):
    m = measurement_count(4, ratio)
    meas = sample(matrix, img, ratio)
    total = meas.total_scalars
    print(f"ratio {ratio:4}: {m:2d} measurements/block, {total:4d} scalars total "
          f"({total / img.size:.0%} of the pixel count)")

# nesting: measurements at a lower ratio are a bitwise prefix of higher ones
lo = sample(matrix, img, 0.2).values.data
hi = sample(matrix, img, 0.8).values.data
assert np.array_equal(lo, hi[:, : lo.shape[1]])
print("nesting: ratio-0.2 measurements are an exact prefix of ratio-0.8 ones")

# the same measurements via a stride-B convolution whose kernels are matrix rows
a = sample(matrix, img, 0.3).values.data
b = sample_conv(matrix, img, 0.3).values.data
print(f"conv route max deviation from matrix route: {np.max(np.abs(a - b)):.2e}")

# sampling is differentiable with respect to the matrix
mat = nm.Tensor(matrix.data.copy(), requires_grad=True)
with nm.GradTape() as tape:
    meas = sample(mat, img, 0.25)
    loss = nm.mean_all(nm.mul(meas.values, meas.values))
tape.backward(loss)
used_rows = measurement_count(4, 0.25)
print(f"gradient reaches the first {used_rows} rows; "
      f"rows beyond the truncation stay zero: "
      f"{np.allclose(mat.grad[used_rows:], 0.0)}")
