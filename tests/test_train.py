import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from dcan.data import Sample, SyntheticConfig, generate_synthetic, load_dataset
from dcan.imaging import ClaheConfig, Image, ImageFormatError, to_unit, write_ppm
from dcan.metrics import metrics
from dcan.model import BackboneConfig, HeadConfig, parse_config
from dcan.autograd import Tensor
from dcan.train import (STACK_IMAGES, RunConfig, _require_finite, load_arrays, predict_proba,
                        preprocess_sample, run_cross_validation, train_model)


def tiny_config(data_dir="data", out_dir="out"):
    return RunConfig(
        backbone=BackboneConfig(input_size=16, blocks=[(4, 2), (8, 2)]),
        head=HeadConfig(hidden_units=8),
        clahe=ClaheConfig(tiles=2),
        synthetic=SyntheticConfig(count=16, size=16, seed=5),
        epochs=1, batch_size=8, k_folds=2, seed=5,
        data_dir=str(data_dir), output_dir=str(out_dir))


class TestRunConfig:
    def test_round_trip_json(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(asdict(cfg)))
        again = RunConfig.from_json(path)
        assert asdict(again) == asdict(cfg)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="epochz"):
            parse_config(RunConfig, {"epochz": 3})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError, match="learning_rate"):
            parse_config(RunConfig, {"adamw": {"learning_rate": 0.1}})

    def test_truncated_file_names_path_line_and_column(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"epochs": 2,\n "clahe": {"tiles": ')
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: Expecting value: line 2 column 21 "):
            RunConfig.from_json(path)

    @pytest.mark.parametrize("text, message", [
        ('{"clahe": 5}', "'clahe' must be dict, got int"),
        ('{"epochs": "3"}', "'epochs' must be int, got str"),
        ('{"clahe": {"tiles": "8"}}', "bad entry in 'clahe': 'tiles' must be int, got str"),
        ('{"clahe": {"bins": 256}}', "bad entry in 'clahe': unknown config key(s): ['bins']"),
        ('[1, 2]', "config must be a JSON object, got list"),
        ('{"backbone": {"blocks": [[8, 0]]}}',
         "bad entry in 'backbone': block (8, 0) needs channels >= 1 and stride >= 1"),
        ('{"backbone": {"blocks": [[0, 2]]}}',
         "bad entry in 'backbone': block (0, 2) needs channels >= 1 and stride >= 1"),
        ('{"backbone": {"blocks": []}}', "bad entry in 'backbone': blocks must not be empty"),
        ('{"backbone": {"kernel": 0}}', "bad entry in 'backbone': 'kernel' must be >= 1, got 0"),
        ('{"synthetic": {"noise_std": 0.05}}',
         "bad entry in 'synthetic': unknown config key(s): ['noise_std']"),
        ('{"backbone": {"blocks": [[8, 2.0], [16, 2], [32, 2]]}}',
         "bad entry in 'backbone': 'blocks' must be list[tuple[int, int]], "
         "got [[8, 2.0], [16, 2], [32, 2]]"),
        ('{"backbone": {"kernel": 3.0}}', "bad entry in 'backbone': 'kernel' must be int, got float"),
        ('{"dca": {"spatial_kernel": 3.0}}',
         "bad entry in 'dca': 'spatial_kernel' must be int, got float"),
        ('{"dca": {"channels": 32}}', "bad entry in 'dca': unknown config key(s): ['channels']"),
        ('{"head": {"num_classes": 2}}',
         "bad entry in 'head': unknown config key(s): ['num_classes']"),
        ('{"clahe": {"tiles": 2.5}}', "bad entry in 'clahe': 'tiles' must be int, got float"),
        ('{"epochs": true}', "'epochs' must be int, got bool"),
        ('{"batch_size": 0}', "'batch_size' must be >= 1, got 0"),
        ('{"head": {"hidden_units": 0}}', "bad entry in 'head': 'hidden_units' must be >= 1, got 0"),
        ('{"k_folds": 1}', "'k_folds' must be >= 2, got 1"),
        ('{"epochs": -1}', "'epochs' must be >= 1, got -1"),
        ('{"seed": -1}', "'seed' must be >= 0, got -1"),
        ('{"synthetic": {"size": 0, "count": 0}}',
         "bad entry in 'synthetic': 'count' must be >= 1, got 0"),
        ('{"synthetic": {"size": 3}}', "bad entry in 'synthetic': 'size' must be >= 4, got 3"),
        ('{"synthetic": {"seed": -1}}', "bad entry in 'synthetic': 'seed' must be >= 0, got -1"),
        # Python's json reads NaN and Infinity; no config float may be either
        ('{"clahe": {"clip_limit": NaN}}',
         "bad entry in 'clahe': 'clip_limit' must be a finite number, got nan"),
        ('{"adamw": {"eta": Infinity}}', "bad entry in 'adamw': 'eta' must be a finite number, got inf"),
        ('{"adamw": {"weight_decay": NaN}}',
         "bad entry in 'adamw': 'weight_decay' must be a finite number, got nan"),
        ('{"adamw": {"epsilon": NaN}}',
         "bad entry in 'adamw': 'epsilon' must be a finite number, got nan"),
        ('{"clahe": {"clip_limit": 1e400}}',
         "bad entry in 'clahe': 'clip_limit' must be a finite number, got inf"),
        ('{"clahe": {"clip_limit": 1%s}}' % ("0" * 309),
         "bad entry in 'clahe': 'clip_limit' must be a finite number, got 1%s" % ("0" * 309)),
    ])
    def test_malformed_entry_names_path_and_key(self, tmp_path, text, message):
        path = tmp_path / "run.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            RunConfig.from_json(path)

    def test_int_accepted_where_float_expected(self):
        cfg = parse_config(RunConfig, {"clahe": {"clip_limit": 2}, "adamw": {"weight_decay": 0}})
        assert cfg.clahe.clip_limit == 2 and cfg.adamw.weight_decay == 0

    def test_readme_example_is_accepted(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"### Run configuration.*?```json\n(.*?)```", readme, re.S).group(1)
        parse_config(RunConfig, json.loads(block))

    def test_defaults(self):
        cfg = parse_config(RunConfig, {})
        assert cfg.epochs == 15 and cfg.k_folds == 5


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    cfg = tiny_config(data_dir=root)
    generate_synthetic(cfg.synthetic, root)
    return root, cfg


class TestPipeline:
    def test_load_arrays_range(self, corpus):
        root, cfg = corpus
        samples = load_dataset(root)
        x, y = load_arrays(samples, cfg.clahe, cfg.backbone.input_size)
        assert x.shape == (16, 16, 16, 3) and x.dtype == np.uint8
        assert 0.0 <= to_unit(x).min() and to_unit(x).max() <= 1.0
        assert set(y) == {0, 1}

    def test_load_arrays_threads_identical(self, corpus):
        root, cfg = corpus
        samples = load_dataset(root)
        x1, y1 = load_arrays(samples, cfg.clahe, cfg.backbone.input_size, threads=1)
        x2, y2 = load_arrays(samples, cfg.clahe, cfg.backbone.input_size, threads=2)
        assert np.array_equal(x1, x2)
        assert y1.tolist() == y2.tolist() == [s.label for s in samples]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_load_arrays_equals_preprocess_sample_per_image(self, tmp_path, threads):
        # 2 chunks and a part; the first chunk mixes two RGB geometries and a gray P5 file
        rng = np.random.default_rng(21)
        shapes = [(24, 24, 3)] * (2 * STACK_IMAGES + 3)
        shapes[1], shapes[3], shapes[STACK_IMAGES + 1] = (17, 30, 3), (24, 24, 1), (17, 30, 3)
        samples = []
        for i, shape in enumerate(shapes):
            path = tmp_path / f"{i:03d}.ppm"
            path.write_bytes(write_ppm(Image(rng.integers(0, 256, shape, dtype=np.uint8))))
            samples.append(Sample(path=str(path), label=i % 2))
        assert len(samples) % STACK_IMAGES != 0
        cfg = ClaheConfig(tiles=3, clip_limit=2.5)
        x, y = load_arrays(samples, cfg, 20, threads)
        expected = np.stack([preprocess_sample(s.path, cfg, 20) for s in samples])
        assert x.shape == (len(samples), 20, 20, 3) and x.dtype == np.uint8
        assert np.array_equal(to_unit(x), expected)
        assert y.tolist() == [s.label for s in samples]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_malformed_ppm_error_names_the_file(self, tmp_path, threads):
        samples = [Sample(path=str(tmp_path / f"{i}.ppm"), label=0) for i in range(3)]
        for s in samples:
            Path(s.path).write_bytes(b"P6\n4 4\n255\n" + bytes(48))
        Path(samples[1].path).write_bytes(b"P6\n4 4\n255\n" + bytes(41))
        message = f"{samples[1].path}: truncated payload at byte 52: need 48 bytes, have 41"
        with pytest.raises(ImageFormatError) as info:
            load_arrays(samples, ClaheConfig(tiles=2), 8, threads)
        assert str(info.value) == message
        with pytest.raises(ImageFormatError) as info:
            preprocess_sample(samples[1].path, ClaheConfig(tiles=2), 8)
        assert str(info.value) == message

    @pytest.mark.parametrize("threads", [1, 2])
    def test_image_smaller_than_tile_grid_names_the_file(self, tmp_path, threads):
        # chunk 0 holds two 6x5 images; the error names the first of that geometry
        samples = []
        for i, (w, h) in enumerate([(8, 8), (6, 5), (8, 8), (6, 5), (8, 8)]):
            path = tmp_path / f"{i}.ppm"
            path.write_bytes(write_ppm(Image(np.full((h, w, 3), 40 * i, dtype=np.uint8))))
            samples.append(Sample(path=str(path), label=i % 2))
        with pytest.raises(ValueError) as info:
            load_arrays(samples, ClaheConfig(tiles=8), 8, threads)
        assert str(info.value) == f"{samples[1].path}: tile grid 8x8 larger than 6x5 image"

    def test_training_reduces_loss(self, corpus):
        root, cfg = corpus
        samples = load_dataset(root)
        x, y = load_arrays(samples, cfg.clahe, cfg.backbone.input_size)
        model = train_model(x, y, cfg, np.random.SeedSequence(0))
        probs = predict_proba(model, x)
        assert probs.shape == (16, 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_cross_validation_determinism(self, corpus):
        root, cfg = corpus
        samples = load_dataset(root)
        x, y = load_arrays(samples, cfg.clahe, cfg.backbone.input_size)
        r1, _ = run_cross_validation(x, y, cfg)
        r2, _ = run_cross_validation(x, y, cfg)
        assert r1.to_csv() == r2.to_csv()
        assert len(r1.folds) == cfg.k_folds

    def test_parallel_eval_matches_serial(self, corpus):
        root, cfg = corpus
        samples = load_dataset(root)
        x, y = load_arrays(samples, cfg.clahe, cfg.backbone.input_size)
        model = train_model(x, y, cfg, np.random.SeedSequence(1))
        serial = predict_proba(model, x, batch_size=4, threads=1)
        parallel = predict_proba(model, x, batch_size=4, threads=4)
        np.testing.assert_array_equal(serial, parallel)

    def test_nan_pixel_stops_training(self, corpus, monkeypatch):
        root, cfg = corpus
        x, y = load_arrays(load_dataset(root), cfg.clahe, cfg.backbone.input_size)

        def scaled_with_nan(levels):  # uint8 holds no NaN: inject it after the scale
            unit = to_unit(levels)
            unit[3, 5, 5, 0] = np.nan
            return unit

        monkeypatch.setattr("dcan.train.to_unit", scaled_with_nan)
        with pytest.raises(FloatingPointError, match="non-finite loss at epoch 0, step "):
            train_model(x, y, cfg, np.random.SeedSequence(0))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_images_that_are_not_uint8_levels_are_rejected(self, corpus, dtype):
        # a float corpus would be scaled by 1/255 a second time without a word
        root, cfg = corpus
        x, y = load_arrays(load_dataset(root), cfg.clahe, cfg.backbone.input_size)
        model = train_model(x, y, cfg, np.random.SeedSequence(0))
        wrong = to_unit(x).astype(dtype)
        message = f"images must be uint8 levels as load_arrays returns, got {np.dtype(dtype)}"
        with pytest.raises(TypeError, match=f"^{message}$"):
            train_model(wrong, y, cfg, np.random.SeedSequence(0))
        for threads in (1, 2):
            with pytest.raises(TypeError, match=f"^{message}$"):
                predict_proba(model, wrong, threads=threads)


def test_each_fold_trains_on_the_rest_and_scores_the_held_out_part(monkeypatch):
    x, y = np.arange(12), np.array([0, 1] * 6)  # sample i is "image" i
    scored = []

    def fake_evaluate(trained_on, xv, yv, *_):
        scored.append((trained_on, set(xv.tolist())))
        return metrics(np.eye(2, dtype=int))

    monkeypatch.setattr("dcan.train.train_model", lambda xt, yt, cfg, seq: set(xt.tolist()))
    monkeypatch.setattr("dcan.train.evaluate", fake_evaluate)
    report, _ = run_cross_validation(x, y, tiny_config())
    assert len(report.folds) == len(scored) == 2
    assert sorted(i for _, held_out in scored for i in held_out) == list(range(12))
    for trained_on, held_out in scored:
        assert trained_on == set(range(12)) - held_out


def test_non_finite_gradient_names_the_parameter():
    w = Tensor(np.ones(3), requires_grad=True)
    w.grad = np.array([0.0, np.inf, 0.0])
    with pytest.raises(FloatingPointError, match="gradient of head_w1 at epoch 2, step 7"):
        _require_finite(Tensor(0.5), {"head_w1": w}, "epoch 2, step 7")
