import numpy as np
import pytest

from dcan.attention import DcaConfig
from dcan.autograd import Tensor
from dcan.explain import (Heatmap, attention_heatmap, export_heatmap,
                          gradcam_map, gradcam_pp, gradcam_weights)
from dcan.imaging import Image, read_ppm
from dcan.model import BackboneConfig, DcaModel, HeadConfig


def small_model(seed=0):
    return DcaModel(BackboneConfig(input_size=16, blocks=[(4, 2), (8, 2)]),
                    DcaConfig(channels=8),
                    HeadConfig(hidden_units=8, dropout_rate=0.0),
                    rng=np.random.default_rng(seed))


class TestGradcamMath:
    def test_mean_of_one_channel_reduces_to_relu(self):
        # score = mean of channel 0 => constant gradient on that channel,
        # heatmap proportional to relu of the channel itself
        rng = np.random.default_rng(0)
        acts = rng.standard_normal((4, 4, 3))
        grads = np.zeros_like(acts)
        grads[:, :, 0] = 1.0 / 16
        raw = gradcam_map(acts, grads)
        reference = np.maximum(acts[:, :, 0], 0.0)
        nz = reference > 0
        ratios = raw[nz] / reference[nz]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)
        np.testing.assert_allclose(raw[~nz & (acts[:, :, 0] < 0)], 0.0, atol=1e-12)

    def test_alpha_zero_on_zero_gradient(self):
        acts = np.ones((2, 2, 1))
        grads = np.zeros_like(acts)
        np.testing.assert_array_equal(gradcam_weights(acts, grads), 0.0)


class TestGradcamModel:
    def test_zero_features_flagged(self):
        model = small_model()
        for name, p in model.params.items():
            if name.startswith("backbone"):
                p.data = np.zeros_like(p.data)
        hm = gradcam_pp(model, Tensor(np.random.default_rng(1).random((1, 16, 16, 3))), 0)
        assert hm.flagged
        np.testing.assert_array_equal(hm.values, 0.0)

    def test_normalized_output(self):
        model = small_model(seed=2)
        hm = gradcam_pp(model, Tensor(np.random.default_rng(3).random((1, 16, 16, 3))), 1)
        assert hm.values.shape == (16, 16)
        assert np.all(hm.values >= 0.0) and np.all(hm.values <= 1.0)
        if np.any(hm.values > 0):
            assert hm.values.max() == pytest.approx(1.0)

    def test_leaves_parameter_grads_clean(self):
        model = small_model(seed=4)
        gradcam_pp(model, Tensor(np.random.default_rng(5).random((1, 16, 16, 3))), 0)
        assert all(p.grad is None for p in model.params.values())

    def test_rejects_batches(self):
        model = small_model()
        with pytest.raises(ValueError):
            gradcam_pp(model, Tensor(np.zeros((2, 16, 16, 3))), 0)


class TestBatchInvariance:
    def test_attention_maps_identical_alone_or_in_batch(self):
        model = small_model(seed=6)
        rng = np.random.default_rng(7)
        img = rng.random((16, 16, 3))
        others = rng.random((3, 16, 16, 3))
        _, maps_alone = model.forward(Tensor(img[None]))
        _, maps_batch = model.forward(Tensor(np.concatenate([others[:2], img[None], others[2:]])))
        for name in ("f_s", "f_g", "f_a", "f_r", "f_dca"):
            alone = getattr(maps_alone, name).data[0]
            batched = getattr(maps_batch, name).data[2]
            np.testing.assert_array_equal(alone, batched)


class TestHeatmapExport:
    @staticmethod
    def base_image(rng, size=8):
        return Image(size, size, 3, rng.integers(0, 256, (size, size, 3), dtype=np.uint8))

    def test_zero_map_overlay_equals_base(self, tmp_path):
        rng = np.random.default_rng(8)
        base = self.base_image(rng)
        hm = Heatmap(8, 8, np.zeros((8, 8)), "f_s")
        export_heatmap(hm, base, tmp_path / "out.ppm")
        overlay = read_ppm((tmp_path / "out.ppm").read_bytes())
        np.testing.assert_array_equal(overlay.pixels, base.pixels)

    def test_full_map_blend_arithmetic(self, tmp_path):
        rng = np.random.default_rng(9)
        base = self.base_image(rng)
        hm = Heatmap(8, 8, np.ones((8, 8)), "gradcam++")
        export_heatmap(hm, base, tmp_path / "out.ppm")
        overlay = read_ppm((tmp_path / "out.ppm").read_bytes())
        expected_red = np.floor(0.5 * base.pixels[..., 0].astype(float) + 0.5 * 255)
        np.testing.assert_array_equal(overlay.pixels[..., 0], expected_red.astype(np.uint8))
        np.testing.assert_array_equal(overlay.pixels[..., 1:], base.pixels[..., 1:])

    def test_pgm_round_trip_quantization(self, tmp_path):
        rng = np.random.default_rng(10)
        base = self.base_image(rng)
        values = rng.random((8, 8))
        values /= values.max()
        export_heatmap(Heatmap(8, 8, values, "f_g"), base, tmp_path / "map.ppm")
        back = read_ppm((tmp_path / "map.pgm").read_bytes())
        assert np.max(np.abs(back.pixels[..., 0] / 255.0 - values)) <= 1.0 / 255.0

    def test_size_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            export_heatmap(Heatmap(4, 4, np.zeros((4, 4)), "f_a"),
                           self.base_image(rng, 8), tmp_path / "x.ppm")


class TestAttentionHeatmap:
    def test_from_forward_maps(self):
        model = small_model(seed=12)
        _, maps = model.forward(Tensor(np.random.default_rng(13).random((1, 16, 16, 3))))
        hm = attention_heatmap(maps, "f_s", 16)
        assert hm.provenance == "f_s"
        assert hm.values.shape == (16, 16)
        assert hm.values.max() == pytest.approx(1.0)

    def test_absent_branch_rejected(self):
        model = DcaModel(BackboneConfig(input_size=16, blocks=[(4, 2), (8, 2)]),
                         DcaConfig(channels=8, enable_refine=False),
                         HeadConfig(hidden_units=8), rng=np.random.default_rng(14))
        _, maps = model.forward(Tensor(np.zeros((1, 16, 16, 3))))
        with pytest.raises(ValueError):
            attention_heatmap(maps, "f_a", 16)
