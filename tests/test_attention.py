import numpy as np
import pytest

from dcan.attention import (DcaConfig, dca_forward, gating_branch, init_dca_params,
                            refine_branch, spatial_branch)
from dcan.autograd import ShapeError, Tensor, grad_check, tsum
from dcan.cli import ABLATION_ROWS


def make_params(config, channels, seed=0):
    return init_dca_params(config, channels, np.random.default_rng(seed))


def zero_params(config, channels):
    params = make_params(config, channels)
    for p in params.values():
        p.data = np.zeros_like(p.data)
    return params


class TestConfig:
    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            DcaConfig(spatial_kernel=2)

    def test_all_disabled_rejected(self):
        with pytest.raises(ValueError):
            DcaConfig(enable_spatial=False, enable_gated=False, enable_refine=False)

    def test_refine_alone_rejected(self):
        with pytest.raises(ValueError):
            DcaConfig(enable_spatial=False, enable_gated=False, enable_refine=True)


class TestSpatialBranch:
    def test_zero_params_uniform(self):
        config = DcaConfig()
        f = Tensor(np.random.default_rng(0).standard_normal((1, 4, 4, 2)))
        out = spatial_branch(f, zero_params(config, 2))
        np.testing.assert_allclose(out.data, 1.0 / 16, atol=1e-15)

    def test_analytic_softmax_through_identity_conv(self):
        # 1x1 identity conv passes logits through; relu keeps them (all >= 0)
        config = DcaConfig(spatial_kernel=1)
        params = zero_params(config, 1)
        params["dca_spatial_w"].data = np.ones((1, 1, 1, 1))
        f = Tensor(np.array([0.0, 0.0, 0.0, np.log(3.0)]).reshape(1, 2, 2, 1))
        out = spatial_branch(f, params)
        np.testing.assert_allclose(out.data.ravel(), [1 / 6, 1 / 6, 1 / 6, 1 / 2],
                                   atol=1e-12)

    def test_random_sums_to_one(self):
        config = DcaConfig()
        params = make_params(config, 3, seed=1)
        f = Tensor(np.random.default_rng(2).standard_normal((2, 5, 5, 3)))
        out = spatial_branch(f, params).data
        np.testing.assert_allclose(out.reshape(2, 25, 3).sum(axis=1), 1.0, atol=1e-12)

    def test_channel_mismatch(self):
        config = DcaConfig()
        with pytest.raises(ShapeError):
            spatial_branch(Tensor(np.zeros((1, 4, 4, 2))), make_params(config, 3))


class TestGatingBranch:
    def test_zero_params_half(self):
        config = DcaConfig()
        f = Tensor(np.random.default_rng(3).standard_normal((1, 3, 3, 2)))
        out = gating_branch(f, zero_params(config, 2))
        np.testing.assert_allclose(out.data, 0.5)

    def test_bias_saturation(self):
        config = DcaConfig()
        params = zero_params(config, 1)
        params["dca_gate_b"].data = np.array([10.0])
        out = gating_branch(Tensor(np.zeros((1, 2, 2, 1))), params)
        assert np.all(out.data > 0.9999)

    def test_matches_conv_oracle(self):
        config = DcaConfig()
        params = make_params(config, 2, seed=4)
        rng = np.random.default_rng(5)
        f = rng.standard_normal((1, 4, 4, 2))
        out = gating_branch(Tensor(f), params).data
        w = params["dca_gate_w"].data[0, 0]
        b = params["dca_gate_b"].data
        logits = f @ w + b  # 1x1 conv is a per-pixel matmul
        np.testing.assert_allclose(out, 1 / (1 + np.exp(-logits)), atol=1e-12)


class TestRefineBranch:
    def test_zero_params_half(self):
        config = DcaConfig()
        f = Tensor(np.random.default_rng(6).standard_normal((1, 3, 3, 2)))
        out = refine_branch(f, zero_params(config, 2))
        np.testing.assert_allclose(out.data, 0.5)

    def test_negative_bias_saturation(self):
        config = DcaConfig()
        params = zero_params(config, 1)
        params["dca_refine_b"].data = np.array([-10.0])
        out = refine_branch(Tensor(np.zeros((1, 2, 2, 1))), params)
        assert np.all(out.data < 1e-4)

    def test_grad_check(self):
        config = DcaConfig()
        params = make_params(config, 2, seed=7)
        f = Tensor(np.random.default_rng(8).standard_normal((1, 4, 4, 2)))

        def loss_fn():
            return tsum(refine_branch(f, params))

        report = grad_check(loss_fn, params, tol=1e-6)
        assert report["passed"], report


class TestDcaForward:
    def test_spatial_only_toggle(self):
        config = DcaConfig(enable_gated=False, enable_refine=False)
        params = make_params(config, 2, seed=9)
        f = Tensor(np.random.default_rng(10).standard_normal((1, 4, 4, 2)))
        f_dca, maps = dca_forward(f, config, params)
        assert "f_g" not in maps and "f_a" not in maps
        np.testing.assert_array_equal(f_dca.data, maps["f_s"].data * f.data)

    def test_composed_constants(self):
        config = DcaConfig()
        params = zero_params(config, 1)
        f = Tensor(np.ones((1, 2, 2, 1)))
        f_dca, maps = dca_forward(f, config, params)
        np.testing.assert_allclose(maps["f_s"].data, 0.25)
        np.testing.assert_allclose(maps["f_g"].data, 0.5)
        np.testing.assert_allclose(maps["f_c"].data, 0.125)
        np.testing.assert_allclose(maps["f_a"].data, 0.5)
        np.testing.assert_allclose(maps["f_r"].data, 0.625)
        np.testing.assert_allclose(f_dca.data, 0.625)

    def test_refined_map_range(self):
        config = DcaConfig()
        params = make_params(config, 3, seed=11)
        rng = np.random.default_rng(12)
        for _ in range(20):
            f = Tensor(rng.standard_normal((4, 4, 4, 3)) * 3)
            _, maps = dca_forward(f, config, params)
            assert np.all(maps["f_r"].data > 0.0) and np.all(maps["f_r"].data < 2.0)

    def test_product_identity_zero_ulps(self):
        config = DcaConfig()
        params = make_params(config, 2, seed=13)
        f = Tensor(np.random.default_rng(14).standard_normal((2, 4, 4, 2)))
        f_dca, maps = dca_forward(f, config, params)
        np.testing.assert_array_equal(f_dca.data, maps["f_r"].data * f.data)

    def test_toggle_bitwise_independence(self):
        # disabling a branch makes the output independent of its parameters
        full = DcaConfig()
        ablated = DcaConfig(enable_refine=False)
        params = make_params(full, 2, seed=15)
        f = Tensor(np.random.default_rng(16).standard_normal((1, 4, 4, 2)))
        out1, _ = dca_forward(f, ablated, params)
        params["dca_refine_w"].data = params["dca_refine_w"].data + 100.0
        out2, _ = dca_forward(f, ablated, params)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_input_dependence(self):
        config = DcaConfig()
        params = make_params(config, 2, seed=17)
        f1 = np.random.default_rng(18).standard_normal((1, 4, 4, 2))
        f2 = f1.copy()
        f2[0, 1, 2, 0] += 1.0
        _, m1 = dca_forward(Tensor(f1), config, params)
        _, m2 = dca_forward(Tensor(f2), config, params)
        assert not np.array_equal(m1["f_s"].data, m2["f_s"].data)

    # the single-branch rows alias f_c to f_s or f_g
    @pytest.mark.parametrize("row", ABLATION_ROWS, ids=lambda row: "".join(f"{b:d}" for b in row))
    def test_end_to_end_grad_check(self, row):
        spatial, gated, refine = row
        config = DcaConfig(enable_spatial=spatial, enable_gated=gated, enable_refine=refine)
        params = make_params(config, 4, seed=19)
        f = Tensor(np.random.default_rng(20).standard_normal((1, 8, 8, 4)))

        def loss_fn():
            f_dca, _ = dca_forward(f, config, params)
            return tsum(f_dca)

        report = grad_check(loss_fn, params, tol=1e-4)
        assert report["passed"], report

    def test_named_maps(self):
        # exactly the maps the enabled branches computed, for every ablation row
        # (the last is the full block); a single branch's map is also f_c
        expected = {(True, False, False): ["f_s", "f_c", "f_r", "f_dca"],
                    (False, True, False): ["f_g", "f_c", "f_r", "f_dca"],
                    (True, True, True): ["f_s", "f_g", "f_c", "f_a", "f_r", "f_dca"]}
        assert list(expected) == ABLATION_ROWS
        f = Tensor(np.ones((1, 2, 2, 1)))
        for (spatial, gated, refine), names in expected.items():
            config = DcaConfig(enable_spatial=spatial, enable_gated=gated,
                               enable_refine=refine)
            f_dca, maps = dca_forward(f, config, zero_params(config, 1))
            assert list(maps) == names
            assert maps["f_dca"] is f_dca
            if not (spatial and gated):
                assert maps["f_c"] is maps["f_s" if spatial else "f_g"]
