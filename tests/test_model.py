import json
import re
import struct

import numpy as np
import pytest

from dcan.attention import DcaConfig
from dcan.autograd import ShapeError, Tape, Tensor, backward, grad_check, softmax
from dcan.cli import ABLATION_ROWS
from dcan.model import BackboneConfig, CheckpointError, DcaModel, HeadConfig
from dcan.optim import AdamWConfig, AdamWState, adamw_step, cross_entropy


def small_model(seed=0, dropout_rate=0.0, unit_norm=True):
    return DcaModel(BackboneConfig(input_size=16, blocks=[(4, 2), (8, 2)]),
                    DcaConfig(),
                    HeadConfig(hidden_units=8, dropout_rate=dropout_rate,
                               unit_norm=unit_norm),
                    rng=np.random.default_rng(seed))


class TestConfigs:
    def test_default_feature_shape(self):
        cfg = BackboneConfig()
        assert cfg.feature_channels == 32

    def test_indivisible_strides_rejected(self):
        with pytest.raises(ValueError):
            BackboneConfig(input_size=50, blocks=[(8, 4)])

    def test_head_validation(self):
        with pytest.raises(ValueError):
            HeadConfig(dropout_rate=1.0)


class TestBackbone:
    def test_default_output_shape(self):
        model = DcaModel(BackboneConfig(), DcaConfig(), HeadConfig(),
                         rng=np.random.default_rng(0))
        out = model.backbone_forward(Tensor(np.zeros((2, 64, 64, 3))))
        assert out.shape == (2, 8, 8, 32)

    def test_zero_weights_zero_features(self):
        model = small_model()
        for name, p in model.params.items():
            if name.startswith("backbone"):
                p.data = np.zeros_like(p.data)
        out = model.backbone_forward(Tensor(np.random.default_rng(1).random((1, 16, 16, 3))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_rejects_wrong_input(self):
        model = small_model()
        with pytest.raises(ShapeError):
            model.backbone_forward(Tensor(np.zeros((1, 16, 8, 3))))
        with pytest.raises(ShapeError):
            model.backbone_forward(Tensor(np.zeros((1, 16, 16, 1))))

    def test_grad_check(self):
        model = small_model(seed=3)
        x = Tensor(np.random.default_rng(4).random((1, 16, 16, 3)))
        backbone_params = {k: v for k, v in model.params.items() if k.startswith("backbone")}

        def loss_fn():
            from dcan.autograd import tsum, sigmoid
            return tsum(sigmoid(model.backbone_forward(x)))

        report = grad_check(loss_fn, backbone_params, tol=1e-4)
        assert report["passed"], report


class TestHead:
    def test_zero_weights_uniform(self):
        model = small_model(unit_norm=False)
        for name in ("head_w1", "head_b1", "head_w2", "head_b2"):
            model.params[name].data = np.zeros_like(model.params[name].data)
        logits = model.head_logits(Tensor(np.random.default_rng(5).random((3, 4, 4, 8))))
        np.testing.assert_allclose(softmax(logits.data, axis=1), 0.5)

    def test_inference_deterministic(self):
        model = small_model(dropout_rate=0.5)
        x = Tensor(np.random.default_rng(6).random((2, 4, 4, 8)))
        a = model.head_logits(x, training=False).data
        b = model.head_logits(x, training=False).data
        np.testing.assert_array_equal(a, b)

    def test_rows_sum_to_one(self):
        model = small_model(seed=7)
        logits = model.head_logits(Tensor(np.random.default_rng(8).random((5, 4, 4, 8))))
        probs = softmax(logits.data, axis=1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)


class TestModelForward:
    def test_batch_shapes(self):
        model = small_model()
        logits, maps = model.forward(Tensor(np.random.default_rng(9).random((2, 16, 16, 3))))
        assert logits.shape == (2, 2)
        np.testing.assert_allclose(softmax(logits.data, axis=1).sum(axis=1), 1.0, atol=1e-12)
        assert maps["f_dca"].shape == (2, 4, 4, 8)

    def test_attention_reads_the_model_params(self):
        # one parameter dict: the attention block sees a changed or replaced entry
        model = small_model(seed=12)
        x = Tensor(np.random.default_rng(13).random((1, 16, 16, 3)))
        before = model.forward(x)[0].data
        model.params["dca_refine_w"].data = model.params["dca_refine_w"].data + 1.0
        perturbed = model.forward(x)[0].data
        assert not np.array_equal(before, perturbed)
        model.params["dca_refine_w"] = Tensor(np.zeros_like(model.params["dca_refine_w"].data))
        assert not np.array_equal(perturbed, model.forward(x)[0].data)

    def test_duplicate_image_identical_rows(self):
        model = small_model(seed=10)
        img = np.random.default_rng(11).random((16, 16, 3))
        logits, _ = model.forward(Tensor(np.stack([img, img])))
        np.testing.assert_array_equal(logits.data[0], logits.data[1])

    def test_inference_bitwise_pure(self):
        model = small_model(seed=12)
        x = Tensor(np.random.default_rng(13).random((2, 16, 16, 3)))
        a, _ = model.forward(x)
        b, _ = model.forward(x)
        np.testing.assert_array_equal(a.data, b.data)

    def test_full_model_grad_check(self):
        # generic parameter point: keeps every gradient entry clear of the
        # central-difference roundoff floor (~1e-11 at h=1e-5)
        rng = np.random.default_rng(8)
        model = small_model(seed=8)
        for p in model.params.values():
            p.data = rng.normal(0.0, 0.4, size=p.data.shape)
        x = Tensor(rng.random((1, 16, 16, 3)))
        onehot = np.array([[1.0, 0.0]])

        def loss_fn():
            logits, _ = model.forward(x, training=False)
            return cross_entropy(logits, onehot)

        report = grad_check(loss_fn, model.params, tol=1e-4)
        assert report["passed"], report


class TestUnitNormConstraint:
    def test_columns_unit_after_step(self):
        model = small_model(seed=16, dropout_rate=0.3)
        rng = np.random.default_rng(17)
        x = Tensor(rng.random((4, 16, 16, 3)))
        onehot = np.eye(2)[[0, 1, 0, 1]]
        with Tape() as tape:
            logits, _ = model.forward(x, training=True, rng=rng)
            loss = cross_entropy(logits, onehot)
        backward(loss, tape)
        adamw_step(model.params, AdamWState(model.params), AdamWConfig())
        model.project_unit_norm()
        for name in ("head_w1", "head_w2"):
            norms = np.linalg.norm(model.params[name].data, axis=0)
            np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_projection_idempotent_on_argmax(self):
        model = small_model(seed=18)
        x = Tensor(np.random.default_rng(19).random((3, 16, 16, 3)))
        before, _ = model.forward(x)
        model.project_unit_norm()  # already normalized at init
        after, _ = model.forward(x)
        np.testing.assert_array_equal(before.data.argmax(axis=1), after.data.argmax(axis=1))


class TestInitialisation:
    @pytest.mark.parametrize("dca", [
        *(DcaConfig(enable_spatial=s, enable_gated=g, enable_refine=r)
          for s, g, r in ABLATION_ROWS),
        DcaConfig(spatial_kernel=5, refine_kernel=1),
    ], ids=lambda c: (f"{c.enable_spatial:d}{c.enable_gated:d}{c.enable_refine:d}"
                      f"_k{c.spatial_kernel}{c.refine_kernel}"))
    def test_every_layer_follows_the_one_rule(self, dca):
        # each kernel uniform within 1/sqrt(fan_in), the fan-in all axes but the
        # last; each bias zeros; checkpoint order. unit_norm is off because the
        # projection rescales the head columns after the draw.
        model = DcaModel(BackboneConfig(input_size=16, blocks=[(4, 2), (8, 2)], kernel=5), dca,
                         HeadConfig(hidden_units=6, unit_norm=False), rng=np.random.default_rng(0))
        branches = ((dca.enable_spatial, "spatial", dca.spatial_kernel),
                    (dca.enable_gated, "gate", 1),
                    (dca.enable_refine, "refine", dca.refine_kernel))
        kernels = {"backbone0_w": (5, 5, 3, 4), "backbone1_w": (5, 5, 4, 8),
                   **{f"dca_{name}_w": (k, k, 8, 8) for on, name, k in branches if on},
                   "head_w1": (8, 6), "head_w2": (6, 2)}
        assert list(model.params) == [n for w in kernels for n in (w, w.replace("_w", "_b"))]
        for name, shape in kernels.items():
            kernel, bias = model.params[name], model.params[name.replace("_w", "_b")]
            bound = 1.0 / np.sqrt(np.prod(shape[:-1]))
            assert kernel.shape == shape, name
            assert bound / 2 < np.abs(kernel.data).max() <= bound, name
            assert bias.shape == (shape[-1],) and not bias.data.any(), name
            assert kernel.requires_grad and bias.requires_grad, name


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = small_model(seed=20)
        path = tmp_path / "model.dcam"
        model.save(path)
        loaded = DcaModel.load(path)
        assert loaded.config_dict() == model.config_dict()
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)
        x = Tensor(np.random.default_rng(21).random((1, 16, 16, 3)))
        np.testing.assert_array_equal(model.forward(x)[0].data, loaded.forward(x)[0].data)

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        # every value comes from the file, so load builds no initialised model
        model = small_model(seed=22, dropout_rate=0.3)
        path = tmp_path / "model.dcam"
        model.save(path)

        def no_draw(*_):
            raise AssertionError("load drew an initial parameter")

        monkeypatch.setattr("dcan.model.layer_params", no_draw)
        monkeypatch.setattr("dcan.attention.layer_params", no_draw)
        loaded = DcaModel.load(path)
        again = tmp_path / "again.dcam"
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()
        assert list(loaded.params) == list(model.params)
        assert all(p.requires_grad and p.data.flags.writeable for p in loaded.params.values())

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dcam"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            DcaModel.load(path)

    @pytest.mark.parametrize("name, index, value", [("backbone0_w", 0, np.nan),
                                                     ("head_b2", -1, np.inf)])
    def test_non_finite_value_raises_located_error(self, tmp_path, name, index, value):
        model = small_model()
        path = tmp_path / "model.dcam"
        model.save(path)
        data = bytearray(path.read_bytes())
        (cfg_len,) = struct.unpack_from("<I", data, 8)
        # the first value of the first blob, or the last value of the last one
        off = 12 + cfg_len + 8 if index == 0 else len(data) - 8
        struct.pack_into("<d", data, off, value)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: byte {off}: {name} holds a non-finite value")):
            DcaModel.load(path)

    def test_truncated_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.dcam"
        model.save(path)
        data = path.read_bytes()
        path.write_bytes(data + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            DcaModel.load(path)

    def test_every_truncation_raises_located_error(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.dcam"
        model.save(path)
        data = path.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", data, 8)
        bounds = [0, 4, 8, 12, 12 + cfg_len]  # magic, version, config length, config
        for p in model.params.values():  # each blob: u64 count, then the values
            bounds += [bounds[-1] + 8, bounds[-1] + 8 + 8 * p.size]
        assert bounds[-1] == len(data)
        inside = [(a + b) // 2 for a, b in zip(bounds, bounds[1:])]
        bad = tmp_path / "cut.dcam"
        for cut in sorted(set(bounds[:-1] + inside + [len(data) - 1])):
            bad.write_bytes(data[:cut])
            with pytest.raises(CheckpointError, match=re.escape(f"{bad}: byte ")):
                DcaModel.load(bad)

    @staticmethod
    def save_with_config(model, path, cfg):
        """Save `model`, then replace its header's config with `cfg`."""
        model.save(path)
        data = path.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", data, 8)
        text = json.dumps(cfg).encode("utf-8")
        path.write_bytes(data[:8] + struct.pack("<I", len(text)) + text + data[12 + cfg_len:])

    @pytest.mark.parametrize("mutate", [
        lambda cfg: cfg.pop("dca"),
        lambda cfg: cfg.update(optimizer={}),
        lambda cfg: cfg["backbone"].pop("input_size"),
        lambda cfg: cfg["head"].update(bogus=1),
        lambda cfg: cfg["backbone"].update(blocks=[[4, 0], [8, 2]]),
        lambda cfg: cfg["backbone"].update(blocks=[[4, 2.0], [8, 2]]),
        lambda cfg: cfg["head"].update(unit_norm=1),
        lambda cfg: cfg["dca"].update(channels=4),
        lambda cfg: cfg["dca"].update(channels=8.0),
        lambda cfg: cfg["head"].pop("hidden_units"),
        lambda cfg: cfg.update(dca=[]),
        lambda cfg: cfg.update(dca="channels"),
        lambda cfg: cfg["head"].update(num_classes=3),
        lambda cfg: cfg["head"].update(num_classes=2.0),
        lambda cfg: cfg["head"].update(num_classes=True),
        lambda cfg: cfg["head"].update(dropout_rate=float("nan")),  # json.dumps writes NaN
    ], ids=["missing_section", "unknown_section", "missing_key", "unknown_key", "zero_stride",
            "float_stride", "int_unit_norm", "legacy_channels_mismatch", "legacy_channels_float",
            "missing_hidden_units",
            "section_not_object", "section_is_string", "legacy_num_classes_mismatch",
            "legacy_num_classes_float", "legacy_num_classes_bool", "nan_dropout_rate"])
    def test_bad_config_raises_located_error(self, tmp_path, mutate):
        model = small_model()
        cfg = model.config_dict()
        mutate(cfg)
        path = tmp_path / "model.dcam"
        self.save_with_config(model, path, cfg)
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: byte 12: ")):
            DcaModel.load(path)

    def assert_legacy_entry_loads(self, tmp_path, section, key, value):
        # headers once stored facts the config derives; a matching entry is dropped
        model = small_model(seed=22)
        legacy = model.config_dict()
        legacy[section][key] = value
        old, new = tmp_path / "legacy.dcam", tmp_path / "model.dcam"
        self.save_with_config(model, old, legacy)
        model.save(new)
        loaded = DcaModel.load(old)
        assert loaded.config_dict() == model.config_dict()
        x = Tensor(np.random.default_rng(23).random((1, 16, 16, 3)))
        np.testing.assert_array_equal(loaded.forward(x)[0].data,
                                      DcaModel.load(new).forward(x)[0].data)

    def test_legacy_channels_entry_loads(self, tmp_path):
        # the attention width, the backbone's last block
        self.assert_legacy_entry_loads(tmp_path, "dca", "channels", 8)

    def test_legacy_num_classes_entry_loads(self, tmp_path):
        # the class count, len(CLASS_NAMES)
        self.assert_legacy_entry_loads(tmp_path, "head", "num_classes", 2)
