"""Ratio-adaptive token embedding for variable-length measurements.

A learnable d x B^2 base matrix is truncated to its first m columns to match
the measurement length at the current sampling ratio, mapping every
measurement vector to a fixed-width token. The bypass path skips the
learnable embedding entirely and zero-pads measurements to the token width.
A learnable positional table is added to the tokens before encoding.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .errors import ContractError, ShapeError
from .sampling import MeasurementSet


def embed(matrix: nm.Tensor, meas: MeasurementSet) -> nm.Tensor:
    """Map each measurement row through the column-truncated (d, B^2) matrix.

    Every image of a batch shares the one product: (..., L, m) -> (..., L, d).
    """
    m, width = meas.measurement_length, matrix.shape[1]
    if m > width:
        raise ContractError(f"measurement length {m} exceeds embedding width {width}")
    cols = nm.slice_cols(matrix, 0, m) if m < width else matrix
    return nm.matmul(meas.values, nm.permute(cols, (1, 0)))


def bypass_embed(meas: MeasurementSet, embed_dim: int) -> nm.Tensor:
    """Zero-pad (..., L, m) measurements to the token width; no parameters."""
    m = meas.measurement_length
    if m > embed_dim:
        raise ContractError(
            f"cannot bypass-embed {m} measurements into width {embed_dim}; "
            f"lower the ratio or raise the embedding dimension")
    if m == embed_dim:
        return meas.values
    pad = nm.Tensor(np.zeros((*meas.values.shape[:-1], embed_dim - m)))
    return nm.concat_cols([meas.values, pad])


def add_position(tokens: nm.Tensor, table: nm.Tensor) -> nm.Tensor:
    """Add the (L, d) positional table, row for row, to L tokens.

    ``tokens`` is (L, d) or (N, L, d); the table broadcasts over N. A token
    count other than the table's row count is a ``ContractError``: each row
    belongs to one cell of the trained token grid.
    """
    n = tokens.shape[-2]
    rows, width = table.shape
    if n != rows:
        raise ContractError(f"{n} tokens for a positional table of {rows} rows")
    if tokens.shape[-1] != width:
        raise ShapeError(f"token width {tokens.shape[-1]} != positional width {width}")
    return nm.add(tokens, table)
