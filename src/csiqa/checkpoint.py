"""Binary checkpoint container: named blobs with a trailing CRC32.

Layout (all little-endian):

    magic   4 bytes  b"CSIQ"
    version u32
    count   u32      number of blobs
    blob*   u16 name length, name utf-8, u64 payload length, payload
    crc     u32      zlib.crc32 of everything before it

The blob headers are parsed before the CRC is compared, so a truncated or
malformed file can fail with a format error first; either way no blob is
returned unless the CRC matches, so a failed load never yields partial
state. Blob order is preserved exactly, which makes
save -> load -> save byte-identical.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointVersionError,
)

MAGIC = b"CSIQ"
VERSION = 1


def write_checkpoint(path, blobs: list[tuple[str, bytes]]) -> None:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<I", len(blobs))
    for name, payload in blobs:
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<Q", len(payload))
        out += payload
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def read_checkpoint(path) -> list[tuple[str, bytes]]:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16 or data[:4] != MAGIC:
        raise CheckpointFormatError(f"{path}: not a checkpoint (bad magic or too short)")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != VERSION:
        raise CheckpointVersionError(f"{path}: format version {version}, expected {VERSION}")
    stored_crc = struct.unpack_from("<I", data, len(data) - 4)[0]
    actual_crc = zlib.crc32(data[:-4])
    (count,) = struct.unpack_from("<I", data, 8)
    blobs: list[tuple[str, bytes]] = []
    offset = 12
    end = len(data) - 4
    for _ in range(count):
        if offset + 2 > end:
            raise CheckpointFormatError(f"{path}: truncated blob header")
        (name_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        if offset + name_len + 8 > end:
            raise CheckpointFormatError(f"{path}: truncated blob name/size")
        try:
            name = data[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointFormatError(
                f"{path}: blob name is not UTF-8: byte 0x{data[offset + e.start]:02x} "
                f"at offset {offset + e.start}") from None
        offset += name_len
        (size,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        if offset + size > end:
            raise CheckpointFormatError(f"{path}: truncated payload for {name!r}")
        blobs.append((name, data[offset : offset + size]))
        offset += size
    if offset != end:
        raise CheckpointFormatError(f"{path}: {end - offset} unexpected bytes after blobs")
    if stored_crc != actual_crc:
        raise CheckpointChecksumError(
            f"{path}: CRC32 mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})")
    return blobs


def array_to_bytes(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=np.float64)
    header = struct.pack("<I", arr.ndim)
    header += b"".join(struct.pack("<Q", s) for s in arr.shape)
    return header + np.ascontiguousarray(arr).astype("<f8").tobytes()


def array_from_bytes(payload: bytes) -> np.ndarray:
    if len(payload) < 4:
        raise CheckpointFormatError("array blob too short")
    (ndim,) = struct.unpack_from("<I", payload, 0)
    offset = 4 + 8 * ndim
    if len(payload) < offset:
        raise CheckpointFormatError(
            f"array blob header declares {ndim} dimensions but the blob is "
            f"{len(payload)} bytes")
    shape = struct.unpack_from(f"<{ndim}Q", payload, 4)
    count, extra = divmod(len(payload) - offset, 8)
    if extra or math.prod(shape) != count:
        raise CheckpointFormatError(
            f"array blob length {len(payload)} does not fit its shape of {ndim} dimensions")
    flat = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
    try:
        return flat.reshape(shape).copy()
    except ValueError as e:  # too many axes, or extents past numpy's size limit
        raise CheckpointFormatError(f"array blob shape is not a numpy shape: {e}") from None
