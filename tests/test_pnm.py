import numpy as np
import pytest

from csiqa import pnm


class TestPgm:
    def test_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(5, 7)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        pnm.write_pgm(path, img)
        back = pnm.read_image(path)
        assert back.shape == (5, 7)
        assert np.array_equal(np.rint(back * 255).astype(np.uint8), img)

    def test_float_quantization_round_trip(self, tmp_path, rng):
        img = rng.random((8, 4))
        path = tmp_path / "img.pgm"
        pnm.write_pgm(path, img)
        back = pnm.read_image(path)
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n\x00\x40\x80\xff")
        img = pnm.read_image(path)
        assert img.shape == (2, 2)
        assert img[1, 1] == 1.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(pnm.PnmError):
            pnm.read_image(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(pnm.PnmError, match="truncated"):
            pnm.read_image(path)

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5\n2 1\n15\n\x0f\x10")
        with pytest.raises(pnm.PnmError, match="16 exceeds maxval 15"):
            pnm.read_image(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(pnm.PnmError, match="8-bit"):
            pnm.read_image(path)


class TestPpm:
    def test_luminance_conversion(self, tmp_path):
        path = tmp_path / "c.ppm"
        # one red, one green, one blue, one white pixel
        body = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 255, 255, 255])
        path.write_bytes(b"P6\n4 1\n255\n" + body)
        img = pnm.read_image(path)
        assert img.shape == (1, 4)
        assert np.allclose(img[0], [0.299, 0.587, 0.114, 1.0], atol=1e-12)
