import numpy as np
import pytest

from dcan.autograd import ShapeError, Tape, Tensor, backward
from dcan.optim import AdamWConfig, AdamWState, adamw_step, cross_entropy, unit_norm_project


def adamw_oracle(theta0, grads, cfg):
    """Independent scalar recurrence for the same update rule."""
    theta, m, v = theta0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        mh = m / (1 - cfg.beta1 ** t)
        vh = v / (1 - cfg.beta2 ** t)
        theta = theta - cfg.eta * (mh / (np.sqrt(vh) + cfg.epsilon) + cfg.weight_decay * theta)
    return theta


class TestCrossEntropy:
    def test_perfect_prediction(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = cross_entropy(Tensor(60.0 * (2.0 * y - 1.0)), y)  # margins of 120
        assert 0.0 <= float(loss.data) <= 1e-11

    def test_uniform_two_class(self):
        z = np.full((3, 2), 0.7)
        y = np.eye(2)[[0, 1, 0]]
        assert float(cross_entropy(Tensor(z), y).data) == pytest.approx(np.log(2), abs=1e-9)

    def test_rejects_non_onehot(self):
        for y in ([[0.5, 0.5]], [[1.0, 1.0]], [[0.0, 0.0]]):
            with pytest.raises(ValueError, match="labels must be one-hot"):
                cross_entropy(Tensor(np.zeros((1, 2))), np.array(y))

    @pytest.mark.parametrize("high, low", [(30.0, -10.0), (1000.0, -1000.0)])
    def test_confidently_wrong_row_keeps_its_gradient(self, high, low):
        # log-softmax of [high, low] at class 1 is low - high; p rounds to [1, 0]
        logits = Tensor(np.array([[high, low]]), requires_grad=True)
        with Tape() as tape:
            loss = cross_entropy(logits, np.array([[0.0, 1.0]]))
        backward(loss, tape)
        assert float(loss.data) == high - low
        np.testing.assert_array_equal(logits.grad, [[1.0, -1.0]])

    def test_logit_gradient_is_p_minus_y_over_n(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        y = np.eye(3)[[0, 2, 1, 1]]
        with Tape() as tape:
            loss = cross_entropy(logits, y)
        backward(loss, tape)
        e = np.exp(logits.data)
        np.testing.assert_allclose(logits.grad, (e / e.sum(axis=1, keepdims=True) - y) / 4, atol=1e-7)

    def test_logit_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((2, 2))
        y = np.eye(2)[[0, 1]]

        def loss_at(zv):
            return float(cross_entropy(Tensor(zv), y).data)

        logits = Tensor(z, requires_grad=True)
        with Tape() as tape:
            loss = cross_entropy(logits, y)
        backward(loss, tape)
        h = 1e-6
        for i in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp.ravel()[i] += h
            zm.ravel()[i] -= h
            num = (loss_at(zp) - loss_at(zm)) / (2 * h)
            assert abs(logits.grad.ravel()[i] - num) < 1e-7


class TestAdamW:
    def test_first_step_adam(self):
        cfg = AdamWConfig(eta=0.01, weight_decay=0.0)
        p = Tensor(np.array([0.0]), requires_grad=True)
        state = AdamWState({"p": p})
        p.grad = np.array([1.0])
        adamw_step({"p": p}, state, cfg)
        assert p.data[0] == pytest.approx(-cfg.eta, rel=1e-6)
        assert state.step == 1
        assert p.grad is None

    def test_pure_decay(self):
        cfg = AdamWConfig(eta=0.1, weight_decay=0.5)
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([0.0])
        adamw_step({"p": p}, AdamWState({"p": p}), cfg)
        assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), rel=1e-12)

    def test_five_steps_match_recurrence_oracle(self):
        cfg = AdamWConfig(eta=0.05, weight_decay=0.01)
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamWState({"p": p})
        grads = []
        for _ in range(5):
            g = 2 * (p.data[0] - 3.0)  # scalar quadratic (theta - 3)^2
            grads.append(g)
            p.grad = np.array([g])
            adamw_step({"p": p}, state, cfg)
        assert abs(p.data[0] - adamw_oracle(1.0, grads, cfg)) < 1e-15

    def test_lambda_zero_is_exactly_adam(self):
        cfg = AdamWConfig(eta=0.02, weight_decay=0.0)
        pa = Tensor(np.array([0.7]), requires_grad=True)
        state = AdamWState({"pa": pa})
        pb = np.array([0.7])
        m, v = np.zeros(1), np.zeros(1)
        rng = np.random.default_rng(2)
        for t in range(1, 11):
            g = rng.standard_normal(1)
            pa.grad = g.copy()
            adamw_step({"pa": pa}, state, cfg)
            # plain Adam reference: decay term dropped entirely
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            mh = m / (1 - cfg.beta1 ** t)
            vh = v / (1 - cfg.beta2 ** t)
            pb = pb - cfg.eta * (mh / (np.sqrt(vh) + cfg.epsilon))
            np.testing.assert_array_equal(pa.data, pb)

    def test_converges_on_quadratic(self):
        cfg = AdamWConfig(eta=0.1, weight_decay=0.0)
        p = Tensor(np.array([0.0]), requires_grad=True)
        state = AdamWState({"p": p})
        for _ in range(200):
            p.grad = 2 * (p.data - 3.0)
            adamw_step({"p": p}, state, cfg)
        assert abs(p.data[0] - 3.0) < 1e-2

    def test_missing_gradient_rejected(self):
        params = {"p": Tensor(np.array([1.0]), requires_grad=True)}
        with pytest.raises(ValueError, match="'p'"):
            adamw_step(params, AdamWState(params), AdamWConfig())

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            AdamWConfig(beta1=1.0)
        with pytest.raises(ValueError):
            AdamWConfig(eta=0.0)


class TestUnitNormProject:
    def test_345_column(self):
        t = Tensor(np.array([[3.0], [4.0]]))
        unit_norm_project(t)
        np.testing.assert_allclose(t.data.ravel(), [0.6, 0.8], atol=1e-15)

    def test_idempotence(self):
        rng = np.random.default_rng(3)
        t = Tensor(rng.standard_normal((8, 4)))
        unit_norm_project(t)
        once = t.data.copy()
        unit_norm_project(t)
        np.testing.assert_allclose(t.data, once, atol=1e-15)

    def test_all_columns_unit(self):
        rng = np.random.default_rng(4)
        t = Tensor(rng.standard_normal((8, 4)))
        unit_norm_project(t)
        np.testing.assert_allclose(np.linalg.norm(t.data, axis=0), 1.0, atol=1e-12)

    def test_zero_column_rejected(self):
        t = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="dead unit"):
            unit_norm_project(t)

    def test_rank_check(self):
        with pytest.raises(ShapeError):
            unit_norm_project(Tensor(np.ones(3)))
