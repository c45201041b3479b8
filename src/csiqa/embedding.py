"""Ratio-adaptive token embedding for variable-length measurements.

A learnable d x B^2 base matrix is truncated to its first m columns to match
the measurement length at the current sampling ratio, mapping every
measurement vector to a fixed-width token. The bypass path skips the
learnable embedding entirely and zero-pads measurements to the token width.
A learnable positional table is added to the tokens before encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ContractError, ShapeError
from .sampling import MeasurementSet


@dataclass
class EmbeddingMatrix:
    """Learnable base matrix whose column prefixes embed each ratio."""

    matrix: nm.Tensor
    embed_dim: int

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.embed_dim:
            raise ShapeError(
                f"embedding matrix must have {self.embed_dim} rows, got {self.matrix.shape}")

    @property
    def max_measurements(self) -> int:
        return self.matrix.shape[1]


@dataclass
class PositionalTable:
    """Learnable per-position embeddings; the first L rows serve L tokens."""

    table: nm.Tensor

    @property
    def capacity(self) -> int:
        return self.table.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.table.shape[1]


def init_embedding(
    embed_dim: int, block_size: int, rng: np.random.Generator, gain: float = 1.0
) -> EmbeddingMatrix:
    """Gaussian init at scale gain/B; gain 1 is variance-preserving at full ratio."""
    side = block_size * block_size
    raw = rng.normal(scale=gain / block_size, size=(embed_dim, side))
    return EmbeddingMatrix(nm.Tensor(raw, requires_grad=True), embed_dim)


def init_positions(capacity: int, embed_dim: int, rng: np.random.Generator) -> PositionalTable:
    raw = nm.trunc_normal(rng, (capacity, embed_dim), std=0.02)
    return PositionalTable(nm.Tensor(raw, requires_grad=True))


def embed(em: EmbeddingMatrix, meas: MeasurementSet) -> nm.Tensor:
    """Map each measurement row through the column-truncated matrix.

    Every image of a batch shares the one product: (N*L, m) -> (N*L, d).
    """
    m = meas.measurement_length
    if m > em.max_measurements:
        raise ContractError(
            f"measurement length {m} exceeds embedding width {em.max_measurements}")
    cols = nm.slice_cols(em.matrix, 0, m) if m < em.max_measurements else em.matrix
    return nm.matmul(meas.values, nm.permute(cols, (1, 0)))


def bypass_embed(meas: MeasurementSet, embed_dim: int) -> nm.Tensor:
    """Zero-pad measurements to the token width; no learnable parameters."""
    m = meas.measurement_length
    if m > embed_dim:
        raise ContractError(
            f"cannot bypass-embed {m} measurements into width {embed_dim}; "
            f"lower the ratio or raise the embedding dimension")
    if m == embed_dim:
        return meas.values
    pad = nm.Tensor(np.zeros((meas.values.shape[0], embed_dim - m)))
    return nm.concat_cols([meas.values, pad])


def add_position(tokens: nm.Tensor, positions: PositionalTable) -> nm.Tensor:
    """Add the first L rows of the positional table to L tokens.

    ``tokens`` is (L, d) or (N, L, d); the table broadcasts over N.
    """
    n = tokens.shape[-2]
    if n > positions.capacity:
        raise ContractError(
            f"{n} tokens exceed positional capacity {positions.capacity}")
    if tokens.shape[-1] != positions.embed_dim:
        raise ShapeError(
            f"token width {tokens.shape[-1]} != positional width {positions.embed_dim}")
    rows = nm.slice_rows(positions.table, 0, n) if n < positions.capacity else positions.table
    return nm.add(tokens, rows)
