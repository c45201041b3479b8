import numpy as np
import pytest

from csiqa import data
from csiqa.errors import ContractError
from csiqa.pnm import read_image

from conftest import SCIPY_MODULES, run_fresh


class TestManifest:
    def test_round_trip(self, tmp_path):
        recs = [data.ManifestRecord(str(tmp_path / "a.pgm"), 0.5),
                data.ManifestRecord(str(tmp_path / "b.pgm"), 0.125)]
        path = tmp_path / "manifest.csv"
        data.write_manifest(path, recs)
        back = data.read_manifest(path)
        assert [r.mos for r in back] == [0.5, 0.125]
        assert [r.path for r in back] == [r.path for r in recs]

    def test_bad_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("path,mos\na.pgm,0.5\n,1.0\nb.pgm,notanumber\n", encoding="utf-8")
        with pytest.raises(ContractError) as e:
            data.read_manifest(path)
        msg = str(e.value)
        assert "line 3" in msg and "line 4" in msg

    def test_non_finite_mos_rejected_with_line_numbers(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("path,mos\na.pgm,0.5\nb.pgm,nan\nc.pgm,inf\nd.pgm,-inf\n",
                        encoding="utf-8")
        with pytest.raises(ContractError) as e:
            data.read_manifest(path)
        msg = str(e.value)
        assert "line 2" not in msg
        assert "line 3" in msg and "line 4" in msg and "line 5" in msg

    def test_non_utf8_bytes_named_with_offset(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_bytes(b"path,mos\n\xff.pgm,0.5\n")
        with pytest.raises(ContractError, match=r"manifest\.csv.*0xff at offset 9"):
            data.read_manifest(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("a.pgm,0.5\n", encoding="utf-8")
        with pytest.raises(ContractError, match="header"):
            data.read_manifest(path)


class TestSplits:
    def test_eight_to_two_by_count(self):
        recs = [data.ManifestRecord(f"{i}.pgm", float(i)) for i in range(32)]
        train, test = data.split_records(recs, seed=0)
        assert len(train) == 26 and len(test) == 6  # round(0.8*32)=26
        assert not set(r.path for r in train) & set(r.path for r in test)

    def test_split_is_seeded_and_reproducible(self):
        recs = [data.ManifestRecord(f"{i}.pgm", float(i)) for i in range(20)]
        a = data.split_records(recs, seed=5)
        b = data.split_records(recs, seed=5)
        c = data.split_records(recs, seed=6)
        assert [r.path for r in a[0]] == [r.path for r in b[0]]
        assert [r.path for r in a[0]] != [r.path for r in c[0]]

    def test_validation_carved_from_train(self):
        recs = [data.ManifestRecord(f"{i}.pgm", float(i)) for i in range(30)]
        train, test = data.split_records(recs, seed=1)
        kept, val = data.carve_validation(train, seed=1)
        assert len(val) == max(1, round(0.1 * len(train)))
        assert set(r.path for r in kept) | set(r.path for r in val) == set(r.path for r in train)


class TestCrops:
    def test_random_crop_shape_and_determinism(self, rng):
        img = rng.random((40, 50))
        r1 = data.random_crop(img, 32, np.random.default_rng(3))
        r2 = data.random_crop(img, 32, np.random.default_rng(3))
        assert r1.shape == (32, 32)
        assert np.array_equal(r1, r2)

    def test_small_image_padded(self, rng):
        img = rng.random((10, 12))
        crop = data.random_crop(img, 32, np.random.default_rng(0))
        assert crop.shape == (32, 32)
        assert np.array_equal(crop[:10, :12], img)

    def test_center_crop(self, rng):
        img = rng.random((40, 40))
        crop = data.center_crop(img, 20)
        assert np.array_equal(crop, img[10:30, 10:30])


class TestToyDataset:
    @pytest.mark.parametrize("field,value", [
        ("n_images", True), ("n_images", 0), ("n_images", 2.5), ("size", 8.0), ("size", 0),
        ("seed", -1), ("seed", True), ("kind", "jpeg"),
    ])
    def test_bad_argument_rejected_before_writing(self, field, value, tmp_path):
        with pytest.raises(ContractError, match=field):
            data.generate_toy_dataset(tmp_path / "toy", **{"n_images": 2, "size": 8, field: value})
        assert not (tmp_path / "toy").exists()

    def test_generated_dataset_properties(self, tmp_path):
        manifest = data.generate_toy_dataset(tmp_path / "toy", n_images=12, size=24, seed=3)
        recs = data.read_manifest(manifest)
        assert len(recs) == 12
        mos = np.array([r.mos for r in recs])
        assert len(np.unique(mos)) == 12  # strictly distinct opinion scores
        assert mos.min() == 0.0 and mos.max() == 1.0
        for rec in recs:
            img = read_image(rec.path)
            assert img.shape == (24, 24)
            assert 0.0 <= img.min() and img.max() <= 1.0

    @staticmethod
    def _roughness_by_mos(manifest) -> list[float]:
        """Mean absolute neighbour difference of each image, lowest MOS first."""
        recs = sorted(data.read_manifest(manifest), key=lambda r: r.mos)
        def roughness(img):
            return float(np.mean(np.abs(np.diff(img, axis=0))) + np.mean(np.abs(np.diff(img, axis=1))))
        return [roughness(read_image(r.path)) for r in recs]

    def test_noise_level_tracks_mos(self, tmp_path):
        """Lower opinion score must mean visibly more high-frequency energy."""
        manifest = data.generate_toy_dataset(tmp_path / "toy", n_images=8, size=32, seed=9)
        rough = self._roughness_by_mos(manifest)
        # worst image (lowest mos) must be much rougher than the cleanest
        assert rough[0] > 2.0 * rough[-1]

    def test_blur_level_tracks_mos(self, tmp_path):
        """Lower opinion score must mean visibly less high-frequency energy."""
        manifest = data.generate_toy_dataset(tmp_path / "toy", n_images=8, size=32, seed=9,
                                             kind="blur")
        rough = self._roughness_by_mos(manifest)
        # worst image (lowest mos) must be much smoother than the sharpest
        assert rough[0] < 0.5 * rough[-1]

    def test_mos_mapping_anchors(self):
        assert data.mos_from_snr(10.0) == pytest.approx(1.0, abs=1e-12)
        assert data.mos_from_snr(1.0) == pytest.approx(0.5, abs=1e-12)
        assert data.mos_from_snr(0.1) == pytest.approx(0.0, abs=1e-12)

    def test_blur_variant(self, tmp_path):
        manifest = data.generate_toy_dataset(tmp_path / "blur", n_images=4, size=16,
                                             seed=1, kind="blur")
        recs = data.read_manifest(manifest)
        assert len(recs) == 4


def test_scipy_loaded_only_for_blur():
    """Importing the package and its CLI loads no scipy; blur loads ndimage."""
    loaded = run_fresh(f"""
import json, sys
import numpy as np
import csiqa, csiqa.cli
before = {SCIPY_MODULES}
csiqa.data.distort(np.full((8, 8), 0.5), 1.0, np.random.default_rng(0), kind="blur")
print(json.dumps([before, {SCIPY_MODULES}]))
""")
    assert loaded[0] == []
    assert "scipy.ndimage" in loaded[1]
