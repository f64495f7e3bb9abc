import numpy as np
import pytest

from dcan.attention import DcaConfig, dca_forward
from dcan.autograd import Tape, Tensor, backward, elementwise, softmax, tsum
from dcan.explain import (attention_heatmap, export_heatmap, gradcam_map, gradcam_pp,
                          gradcam_weights)
from dcan.imaging import Image, bilinear_stack, read_ppm
from dcan.model import BackboneConfig, DcaModel, HeadConfig


def small_model(seed=0):
    return DcaModel(BackboneConfig(input_size=16, blocks=[(4, 2), (8, 2)]),
                    DcaConfig(),
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
        _, _, hm = gradcam_pp(model, Tensor(np.random.default_rng(1).random((1, 16, 16, 3))))
        np.testing.assert_array_equal(hm, 0.0)

    def test_normalized_output(self):
        model = small_model(seed=2)
        _, _, hm = gradcam_pp(model, Tensor(np.random.default_rng(3).random((1, 16, 16, 3))))
        assert hm.shape == (16, 16)
        assert np.all(hm >= 0.0) and np.all(hm <= 1.0)
        if np.any(hm > 0):
            assert hm.max() == pytest.approx(1.0)

    def test_leaves_parameter_grads_clean(self):
        model = small_model(seed=4)
        gradcam_pp(model, Tensor(np.random.default_rng(5).random((1, 16, 16, 3))))
        assert all(p.grad is None for p in model.params.values())

    def test_returns_the_forward_probabilities_and_maps(self):
        model = small_model(seed=15)
        x = Tensor(np.random.default_rng(16).random((1, 16, 16, 3)))
        probs, maps, _ = gradcam_pp(model, x)
        logits, plain = model.forward(x)
        np.testing.assert_array_equal(probs, softmax(logits.data, axis=1)[0])
        for name in ("f_s", "f_g", "f_c", "f_a", "f_r", "f_dca"):
            np.testing.assert_array_equal(maps[name].data, plain[name].data)

    def test_matches_a_second_pass_on_the_predicted_class(self):
        # reference: a second taped pass through the model's stages, scored on
        # the logit of the class an untaped forward predicted
        model = small_model(seed=17)
        x = Tensor(np.random.default_rng(18).random((1, 16, 16, 3)))
        _, _, hm = gradcam_pp(model, x)
        logits, _ = model.forward(x)
        onehot = np.eye(2)[[int(logits.data[0].argmax())]]
        with Tape() as tape:
            f_dca, _ = dca_forward(model.backbone_forward(x), model.dca, model.params)
            score = tsum(elementwise("mul", model.head_logits(f_dca), Tensor(onehot)))
        backward(score, tape)
        up = bilinear_stack(gradcam_map(f_dca.data[0], f_dca.grad[0])[None], 16)[0]
        np.testing.assert_array_equal(hm, up / up.max())

    def test_rejects_batches(self):
        model = small_model()
        with pytest.raises(ValueError):
            gradcam_pp(model, Tensor(np.zeros((2, 16, 16, 3))))


class TestBatchInvariance:
    def test_attention_maps_identical_alone_or_in_batch(self):
        model = small_model(seed=6)
        rng = np.random.default_rng(7)
        img = rng.random((16, 16, 3))
        others = rng.random((3, 16, 16, 3))
        _, maps_alone = model.forward(Tensor(img[None]))
        _, maps_batch = model.forward(Tensor(np.concatenate([others[:2], img[None], others[2:]])))
        for name in ("f_s", "f_g", "f_a", "f_r", "f_dca"):
            alone = maps_alone[name].data[0]
            batched = maps_batch[name].data[2]
            np.testing.assert_array_equal(alone, batched)


class TestHeatmapExport:
    @staticmethod
    def base_image(rng, size=8):
        return Image(rng.integers(0, 256, (size, size, 3), dtype=np.uint8))

    def test_zero_map_overlay_equals_base(self, tmp_path):
        rng = np.random.default_rng(8)
        base = self.base_image(rng)
        hm = np.zeros((8, 8))
        export_heatmap(hm, base, tmp_path / "out.ppm")
        overlay = read_ppm((tmp_path / "out.ppm").read_bytes())
        np.testing.assert_array_equal(overlay.pixels, base.pixels)

    def test_full_map_blend_arithmetic(self, tmp_path):
        rng = np.random.default_rng(9)
        base = self.base_image(rng)
        hm = np.ones((8, 8))
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
        export_heatmap(values, base, tmp_path / "map.ppm")
        back = read_ppm((tmp_path / "map.pgm").read_bytes())
        assert np.max(np.abs(back.pixels[..., 0] / 255.0 - values)) <= 1.0 / 255.0

    def test_size_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            export_heatmap(np.zeros((4, 4)),
                           self.base_image(rng, 8), tmp_path / "x.ppm")
        wide = Image(rng.integers(0, 256, (6, 8, 3), dtype=np.uint8))
        export_heatmap(np.zeros((6, 8)), wide, tmp_path / "wide.ppm")
        with pytest.raises(ValueError, match="heatmap 6x8 does not match base image 8x6"):
            export_heatmap(np.zeros((8, 6)), wide, tmp_path / "x.ppm")


class TestAttentionHeatmap:
    def test_from_forward_maps(self):
        model = small_model(seed=12)
        _, maps = model.forward(Tensor(np.random.default_rng(13).random((1, 16, 16, 3))))
        hm = attention_heatmap(maps, "f_s", 16)
        assert hm.shape == (16, 16)
        assert hm.max() == pytest.approx(1.0)

    def test_absent_branch_rejected(self):
        model = DcaModel(BackboneConfig(input_size=16, blocks=[(4, 2), (8, 2)]),
                         DcaConfig(enable_refine=False),
                         HeadConfig(hidden_units=8), rng=np.random.default_rng(14))
        _, maps = model.forward(Tensor(np.zeros((1, 16, 16, 3))))
        with pytest.raises(ValueError):
            attention_heatmap(maps, "f_a", 16)
