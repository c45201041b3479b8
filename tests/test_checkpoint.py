import math
import struct

import numpy as np
import pytest

from csiqa import checkpoint as ck
from csiqa.errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointVersionError,
)

from conftest import frame_checkpoint


@pytest.fixture
def blobs(rng):
    return [
        ("meta/config", b'{"kind":"demo"}'),
        ("param/w", ck.array_to_bytes(rng.normal(size=(3, 4)))),
        ("param/b", ck.array_to_bytes(rng.normal(size=5))),
    ]


class TestContainer:
    def test_round_trip_preserves_order_and_content(self, tmp_path, blobs):
        path = tmp_path / "c.ckpt"
        ck.write_checkpoint(path, blobs)
        back = ck.read_checkpoint(path)
        assert [n for n, _ in back] == [n for n, _ in blobs]
        assert all(a == b for (_, a), (_, b) in zip(back, blobs))

    def test_save_load_save_is_byte_identical(self, tmp_path, blobs):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ck.write_checkpoint(p1, blobs)
        ck.write_checkpoint(p2, ck.read_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupted_trailing_bytes_fail_checksum(self, tmp_path, blobs):
        path = tmp_path / "c.ckpt"
        ck.write_checkpoint(path, blobs)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointChecksumError):
            ck.read_checkpoint(path)

    def test_corrupted_payload_fails_checksum(self, tmp_path, blobs):
        path = tmp_path / "c.ckpt"
        ck.write_checkpoint(path, blobs)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0x01  # inside the final blob payload
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointChecksumError):
            ck.read_checkpoint(path)

    def test_truncated_file_is_distinct_error(self, tmp_path, blobs):
        path = tmp_path / "c.ckpt"
        ck.write_checkpoint(path, blobs)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointFormatError):
            ck.read_checkpoint(path)

    def test_version_mismatch_is_distinct_error(self, tmp_path, blobs):
        path = tmp_path / "c.ckpt"
        path.write_bytes(frame_checkpoint(
            [(name.encode("utf-8"), payload) for name, payload in blobs], version=99))
        with pytest.raises(CheckpointVersionError):
            ck.read_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(CheckpointFormatError):
            ck.read_checkpoint(path)

    def test_non_utf8_blob_name_is_format_error_naming_offset(self, tmp_path, blobs):
        framed = [(name.encode("utf-8"), payload) for name, payload in blobs]
        framed[1] = (b"param/\xffw", framed[1][1])
        path = tmp_path / "c.ckpt"
        path.write_bytes(frame_checkpoint(framed))
        name_start = 12 + 2 + len(blobs[0][0]) + 8 + len(blobs[0][1]) + 2
        with pytest.raises(CheckpointFormatError) as e:
            ck.read_checkpoint(path)
        assert f"byte 0xff at offset {name_start + 6}" in str(e.value)

    def test_frame_matches_writer(self, tmp_path, blobs):
        path = tmp_path / "c.ckpt"
        ck.write_checkpoint(path, blobs)
        framed = [(name.encode("utf-8"), payload) for name, payload in blobs]
        assert path.read_bytes() == frame_checkpoint(framed)

    def test_little_endian_layout(self, tmp_path):
        path = tmp_path / "c.ckpt"
        ck.write_checkpoint(path, [("x", b"hi")])
        raw = path.read_bytes()
        assert raw[:4] == b"CSIQ"
        assert struct.unpack_from("<I", raw, 4)[0] == ck.VERSION
        assert struct.unpack_from("<I", raw, 8)[0] == 1
        assert struct.unpack_from("<H", raw, 12)[0] == 1  # name length


class TestArrayBlob:
    def test_round_trip_bit_exact(self, rng):
        for shape in [(), (4,), (2, 3), (2, 3, 4), (0,), (2, 0, 3)]:
            arr = rng.normal(size=shape)
            back = ck.array_from_bytes(ck.array_to_bytes(arr))
            assert back.shape == arr.shape
            assert np.array_equal(back, arr)

    def test_length_mismatch_rejected(self, rng):
        payload = ck.array_to_bytes(rng.normal(size=4))
        with pytest.raises(CheckpointFormatError):
            ck.array_from_bytes(payload + b"\x00" * 8)

    @pytest.mark.parametrize("payload", [
        struct.pack("<I", 3) + b"\x00" * 4,  # three dimensions, half of one extent
        struct.pack("<I", 0xFFFFFFFF) + b"\x00" * 8,
        struct.pack("<I", 1),
    ])
    def test_header_shorter_than_its_dimensions_rejected(self, payload):
        with pytest.raises(CheckpointFormatError, match="header declares"):
            ck.array_from_bytes(payload)

    @pytest.mark.parametrize("shape", [(1,) * 70, (2**64 - 1, 0)])
    def test_shape_numpy_cannot_hold_rejected(self, shape):
        count = math.prod(shape)
        payload = struct.pack(f"<I{len(shape)}Q", len(shape), *shape) + b"\x00" * 8 * count
        with pytest.raises(CheckpointFormatError, match="not a numpy shape"):
            ck.array_from_bytes(payload)
