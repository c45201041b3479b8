"""Binary PGM (P5) and PPM (P6) reading and writing, 8-bit only.

Images are exchanged with the rest of the package as float64 arrays in
[0, 1]. Color PPM input is converted to luminance with the ITU-R BT.601
weights 0.299/0.587/0.114 on load; only grayscale PGM is written.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

_LUMA = np.array([0.299, 0.587, 0.114])
_WHITESPACE = b" \t\n\r\x0b\x0c"


class PnmError(ContractError):
    """Malformed or unsupported PGM/PPM content."""


def _read_header_tokens(data: bytes, count: int, offset: int) -> tuple[list[int], int]:
    """Read whitespace-separated integer tokens, skipping '#' comments."""
    tokens: list[int] = []
    i = offset
    while len(tokens) < count:
        while i < len(data) and data[i : i + 1] in _WHITESPACE:
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(data) and data[i : i + 1] not in _WHITESPACE:
            i += 1
        if start == i:
            raise PnmError("truncated header")
        try:
            tokens.append(int(data[start:i]))
        except ValueError:
            raise PnmError(f"non-numeric header token {data[start:i]!r}") from None
    return tokens, i


def read_image(path) -> np.ndarray:
    """Load a P5/P6 file as a single-channel float image in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2 or data[:2] not in (b"P5", b"P6"):
        raise PnmError(f"unsupported magic {data[:2]!r}; expected P5 or P6")
    channels = 1 if data[:2] == b"P5" else 3
    (width, height, maxval), i = _read_header_tokens(data, 3, 2)
    if width < 1 or height < 1:
        raise PnmError(f"bad dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise PnmError(f"only 8-bit images supported, maxval {maxval}")
    i += 1  # single whitespace byte after maxval
    need = width * height * channels
    raw = data[i : i + need]
    if len(raw) < need:
        raise PnmError(f"pixel data truncated: need {need} bytes, have {len(raw)}")
    samples = np.frombuffer(raw, dtype=np.uint8)
    if samples.max() > maxval:
        raise PnmError(f"pixel value {samples.max()} exceeds maxval {maxval}")
    pixels = samples.astype(np.float64) / maxval
    if channels == 1:
        return pixels.reshape(height, width)
    return pixels.reshape(height, width, 3) @ _LUMA


def write_pgm(path, img: np.ndarray) -> None:
    """Write a float image in [0, 1] (or uint8) as binary P5, maxval 255."""
    img = np.asarray(img)
    if img.ndim != 2:
        raise PnmError(f"PGM output needs a 2-D array, got shape {img.shape}")
    if img.dtype != np.uint8:
        img = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.tobytes())
