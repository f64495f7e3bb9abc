import numpy as np
import pytest

from dcan.data import SyntheticConfig, generate_synthetic, kfold_split, load_dataset
from dcan.imaging import read_ppm


def rgb_to_hue(rgb):
    r, g, b = rgb / 255.0
    mx, mn = max(r, g, b), min(r, g, b)
    if mx == mn:
        return 0.0
    d = mx - mn
    if mx == r:
        h = ((g - b) / d) % 6
    elif mx == g:
        h = (b - r) / d + 2
    else:
        h = (r - g) / d + 4
    return h * 60.0


class TestGenerator:
    def test_counts_and_manifest(self, tmp_path):
        cfg = SyntheticConfig(count=10, seed=1)
        samples = generate_synthetic(cfg, tmp_path)
        assert len(samples) == 10
        assert sum(s.label for s in samples) == 5
        assert len(list((tmp_path / "normal").glob("*.ppm"))) == 5
        assert len(list((tmp_path / "abnormal").glob("*.ppm"))) == 5
        assert (tmp_path / "manifest.csv").read_text().count("\n") == 11

    def test_determinism(self, tmp_path):
        cfg = SyntheticConfig(count=6, seed=7)
        generate_synthetic(cfg, tmp_path / "a")
        generate_synthetic(cfg, tmp_path / "b")
        for f in sorted((tmp_path / "a").rglob("*")):
            if f.is_file():
                twin = tmp_path / "b" / f.relative_to(tmp_path / "a")
                assert f.read_bytes() == twin.read_bytes(), f.name

    def test_blob_hue_margin(self, tmp_path):
        cfg = SyntheticConfig(count=40, seed=2)
        samples = generate_synthetic(cfg, tmp_path)
        for s in samples:
            if s.label != 1:
                continue
            img = read_ppm(open(s.path, "rb").read())
            x0, y0, x1, y1 = s.bbox
            # sample the central quarter of the box: pure blob interior
            cx, cy = (x0 + x1) // 2, (y0 + y1) // 2
            rx, ry = max((x1 - x0) // 4, 1), max((y1 - y0) // 4, 1)
            blob = img.pixels[cy - ry:cy + ry + 1, cx - rx:cx + rx + 1].reshape(-1, 3).mean(axis=0)
            border = np.concatenate([img.pixels[0].reshape(-1, 3),
                                     img.pixels[-1].reshape(-1, 3)]).mean(axis=0)
            diff = abs(rgb_to_hue(blob) - rgb_to_hue(border))
            assert min(diff, 360 - diff) > 20

    def test_bbox_inside_image_and_area(self, tmp_path):
        cfg = SyntheticConfig(count=30, size=48, seed=3)
        samples = generate_synthetic(cfg, tmp_path)
        min_area = np.pi * (0.08 * 48) ** 2 * 0.5
        for s in samples:
            if s.label == 1:
                x0, y0, x1, y1 = s.bbox
                assert 0 <= x0 < x1 < 48 and 0 <= y0 < y1 < 48
                assert (x1 - x0 + 1) * (y1 - y0 + 1) >= min_area
            else:
                assert s.bbox is None


class TestLoader:
    def test_loads_generated_corpus(self, tmp_path):
        cfg = SyntheticConfig(count=10, seed=4)
        generated = generate_synthetic(cfg, tmp_path)
        loaded = load_dataset(tmp_path)
        assert len(loaded) == 10
        by_path = {s.path: s for s in generated}
        for s in loaded:
            assert s.label == by_path[s.path].label
            assert s.bbox == by_path[s.path].bbox

    def test_sorted_independent_of_creation_order(self, tmp_path):
        (tmp_path / "normal").mkdir()
        (tmp_path / "abnormal").mkdir()
        ppm = b"P6\n1 1\n255\n\x00\x00\x00"
        for name in ("normal/z.ppm", "normal/a.ppm", "abnormal/m.ppm"):
            (tmp_path / name).write_bytes(ppm)
        paths = [s.path for s in load_dataset(tmp_path)]
        assert paths == sorted(paths)

    def test_empty_class_dir(self, tmp_path):
        (tmp_path / "normal").mkdir()
        (tmp_path / "abnormal").mkdir()
        (tmp_path / "normal" / "x.ppm").write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        samples = load_dataset(tmp_path)
        assert [s.label for s in samples] == [0]

    def test_unknown_class_rejected(self, tmp_path):
        (tmp_path / "mystery").mkdir()
        with pytest.raises(ValueError, match="mystery"):
            load_dataset(tmp_path)

    def test_no_images_rejected(self, tmp_path):
        (tmp_path / "normal").mkdir()
        (tmp_path / "abnormal").mkdir()
        with pytest.raises(ValueError, match=f"{tmp_path} holds no .ppm images"):
            load_dataset(tmp_path)

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")

    @pytest.mark.parametrize("line, text, message", [
        (4, "abnormal/abnormal_00002.ppm,1,x,3,7,7",
         "line 4: bbox cells ['x', '3', '7', '7'] are not all integers"),
        (3, "abnormal/abnormal_00001.ppm,1,2,1",
         "line 3: bbox cells ['2', '1', None, None] are not all integers"),
        (1, "path,label,y0,x1,y1", "line 1: header lacks column(s) x0"),
        (1, "file,label,x0,y0,x1", "line 1: header lacks column(s) path, y1"),
        (2, "abnormal/abnormal_\udcff0000.ppm,1,2,2,6,6", "line 2: not UTF-8 text"),
    ], ids=["non_integer_cell", "short_row", "no_x0", "no_path_or_y1", "not_utf8"])
    def test_malformed_manifest_names_the_file_and_line(self, tmp_path, line, text, message):
        generate_synthetic(SyntheticConfig(count=6, size=8, seed=2), tmp_path)
        manifest = tmp_path / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[line - 1] = text
        manifest.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        with pytest.raises(ValueError) as info:
            load_dataset(tmp_path)
        assert str(info.value) == f"{manifest}, {message}"


def round_robin_reference(labels, k, seed):
    """The fold deal written as a plain loop: each class in label order is
    shuffled, then its members take folds 0, 1, ..., k-1, 0, ... in turn."""
    rng = np.random.default_rng(seed)
    folds = [None] * len(labels)
    for label in sorted(set(labels)):
        idx = np.array([i for i, lab in enumerate(labels) if lab == label])
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            folds[int(i)] = pos % k
    return folds


class TestKfold:
    @staticmethod
    def labels(n_normal, n_abnormal):
        return np.array([0] * n_normal + [1] * n_abnormal)

    def test_exact_stratification(self):
        labels = self.labels(5, 5)
        folds = kfold_split(labels, k=5, seed=0)
        for fold in range(5):
            assert sorted(labels[folds == fold]) == [0, 1]

    def test_partition_law(self):
        folds = kfold_split(self.labels(13, 17), k=4, seed=1)
        assert folds.shape == (30,)
        assert set(folds.tolist()) == {0, 1, 2, 3}

    def test_large_corpus_counts(self):
        labels = self.labels(520, 550)
        folds = kfold_split(labels, k=5, seed=2)
        for fold in range(5):
            assert np.sum(labels[folds == fold] == 1) == 110
            assert np.sum(labels[folds == fold] == 0) == 104

    def test_deterministic_in_seed(self):
        labels = self.labels(10, 10)
        np.testing.assert_array_equal(kfold_split(labels, k=5, seed=9),
                                      kfold_split(labels, k=5, seed=9))

    @pytest.mark.parametrize("labels, k, seed", [
        ([0] * 13 + [1] * 17, 4, 1),
        ([1, 0, 2, 1, 0, 2, 2, 1, 0, 0, 1, 2], 3, 7),
        ([1, 0] * 32, 2, 0),
    ])
    def test_matches_round_robin_reference(self, labels, k, seed):
        assert kfold_split(labels, k, seed).tolist() == round_robin_reference(labels, k, seed)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(self.labels(3, 10), k=4, seed=0)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(self.labels(5, 5), k=1, seed=0)
