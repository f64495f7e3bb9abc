import numpy as np
import pytest

from dcan.autograd import (ShapeError, Tape, Tensor, backward,
                           conv2d, dense, dropout, elementwise,
                           global_average_pool, grad_check, relu, sigmoid,
                           softmax_rows, spatial_softmax, tsum)
from dcan.optim import cross_entropy


def _pad_same(x, kh, kw, stride):
    """Zero-pad for 'same' output; returns (padded, top pad, left pad)."""
    n, h, w, _ = x.shape
    ho, wo = -(-h // stride), -(-w // stride)
    th = max((ho - 1) * stride + kh - h, 0)
    tw = max((wo - 1) * stride + kw - w, 0)
    xp = np.pad(x, ((0, 0), (th // 2, th - th // 2), (tw // 2, tw - tw // 2), (0, 0)))
    return xp, th // 2, tw // 2


def conv2d_oracle(x, k, b, stride=1):
    """Direct nested-loop convolution, independent of the im2col path."""
    n, h, w, cin = x.shape
    kh, kw, _, cout = k.shape
    xp = _pad_same(x, kh, kw, stride)[0]
    ho = (xp.shape[1] - kh) // stride + 1
    wo = (xp.shape[2] - kw) // stride + 1
    out = np.zeros((n, ho, wo, cout))
    for ni in range(n):
        for i in range(ho):
            for j in range(wo):
                for co in range(cout):
                    acc = b[co]
                    for di in range(kh):
                        for dj in range(kw):
                            for ci in range(cin):
                                acc += xp[ni, i * stride + di, j * stride + dj, ci] * k[di, dj, ci, co]
                    out[ni, i, j, co] = acc
    return out


def conv2d_adjoint_oracle(x, k, g, stride=1):
    """Nested-loop dL/dx, dL/dk, dL/db for upstream gradient g."""
    n, h, w, cin = x.shape
    kh, kw, _, cout = k.shape
    xp, pt, pl = _pad_same(x, kh, kw, stride)
    dxp, dk, db = np.zeros_like(xp), np.zeros_like(k), np.zeros(cout)
    _, ho, wo, _ = g.shape
    for ni in range(n):
        for i in range(ho):
            for j in range(wo):
                for co in range(cout):
                    gv = g[ni, i, j, co]
                    db[co] += gv
                    for di in range(kh):
                        for dj in range(kw):
                            for ci in range(cin):
                                r, c = i * stride + di, j * stride + dj
                                dxp[ni, r, c, ci] += gv * k[di, dj, ci, co]
                                dk[di, dj, ci, co] += gv * xp[ni, r, c, ci]
    return dxp[:, pt:pt + h, pl:pl + w, :], dk, db


def im2col_loop_reference(x, kh, kw, stride=1):
    """The k*k loop of strided slice copies that conv2d's im2col replaced."""
    xp = _pad_same(x, kh, kw, stride)[0]
    n, _, _, cin = x.shape
    ho = (xp.shape[1] - kh) // stride + 1
    wo = (xp.shape[2] - kw) // stride + 1
    cols = np.empty((n, ho, wo, kh, kw, cin))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j, :] = xp[:, i:i + ho * stride:stride, j:j + wo * stride:stride, :]
    return cols.reshape(n * ho * wo, kh * kw * cin), (n, ho, wo)


def numeric_grad(f, x, h=1e-5):
    """Central finite differences of scalar-valued f w.r.t. array x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        g.ravel()[i] = (fp - fm) / (2 * h)
    return g


def backprop(op, inputs, g):
    """op(*inputs) run on a tape, with the upstream gradient g backpropagated into it."""
    with Tape() as tape:
        out = op(*inputs)
        loss = tsum(elementwise("mul", out, Tensor(g)))
    backward(loss, tape)
    return out


def analytic_grad(op, x_data, weight=None):
    """Gradient of sum(op(x) * weight) via the tape."""
    x = Tensor(x_data, requires_grad=True)
    with Tape() as tape:
        y = op(x)
        if weight is not None:
            y = elementwise("mul", y, Tensor(weight))
        loss = tsum(y)
    backward(loss, tape)
    return x.grad


SWEEP = [(4, 4, 1, 1), (5, 7, 3, 1), (8, 8, 3, 2), (6, 5, 3, 1), (8, 6, 3, 2), (7, 7, 1, 2),
         # input-gradient stride phases: odd extents with a top pad at stride 2; 3 and 2
         # taps per phase; stride 3; phases that no tap reaches (k < stride)
         (7, 5, 3, 2), (9, 9, 5, 2), (7, 8, 3, 3), (6, 6, 1, 3)]


def sweep_ids(cases):
    """h-w-k-stride-same: conv2d pads "same" only."""
    return ["-".join(map(str, case)) + "-same" for case in cases]


class TestConv2d:
    def test_scalar_affine(self):
        out = conv2d(Tensor([[[[2.0]]]]), Tensor([[[[3.0]]]]), Tensor([1.0]))
        assert out.data.item() == pytest.approx(7.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 5, 3))
        k = rng.standard_normal((3, 3, 3, 4))
        b = rng.standard_normal(4)
        out = conv2d(Tensor(x), Tensor(k), Tensor(b), stride=1)
        np.testing.assert_allclose(out.data, conv2d_oracle(x, k, b), atol=1e-12)

    @pytest.mark.parametrize("h,w,k,stride", SWEEP, ids=sweep_ids(SWEEP))
    def test_oracle_shape_sweep(self, h, w, k, stride):
        rng = np.random.default_rng(hash((h, w, k, stride)) % 2**32)
        x = rng.standard_normal((2, h, w, 2))
        kern = rng.standard_normal((k, k, 2, 3))
        b = rng.standard_normal(3)
        xt, kt, bt = (Tensor(a, requires_grad=True) for a in (x, kern, b))
        with Tape() as tape:
            out = conv2d(xt, kt, bt, stride=stride)
            g = rng.standard_normal(out.shape)
            loss = tsum(elementwise("mul", out, Tensor(g)))
        np.testing.assert_allclose(out.data, conv2d_oracle(x, kern, b, stride), atol=1e-12)
        backward(loss, tape)
        for grad, expected in zip((xt.grad, kt.grad, bt.grad),
                                  conv2d_adjoint_oracle(x, kern, g, stride)):
            np.testing.assert_allclose(grad, expected, atol=1e-12)

    @pytest.mark.parametrize("h,w,k,stride", SWEEP + [(16, 16, 3, 2)],
                             ids=sweep_ids(SWEEP + [(16, 16, 3, 2)]))
    def test_im2col_bitwise_matches_loop_reference(self, h, w, k, stride):
        rng = np.random.default_rng(hash((h, w, k, stride, 1)) % 2**32)
        x = rng.standard_normal((2, h, w, 3))
        kern = rng.standard_normal((k, k, 3, 4))
        b = rng.standard_normal(4)
        cols, (n, ho, wo) = im2col_loop_reference(x, k, k, stride)
        expected = (cols @ kern.reshape(-1, 4) + b).reshape(n, ho, wo, 4)
        out = conv2d(Tensor(x), Tensor(kern), Tensor(b), stride=stride)
        assert np.array_equal(out.data, expected)

    def test_channel_mismatch_names_axis(self):
        with pytest.raises(ShapeError, match="channel"):
            conv2d(Tensor(np.zeros((1, 4, 4, 3))), Tensor(np.zeros((3, 3, 2, 4))),
                   Tensor(np.zeros(4)))

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 4, 4, 2))
        k = rng.standard_normal((3, 3, 2, 2))
        b = rng.standard_normal(2)
        kt, bt = Tensor(k, requires_grad=True), Tensor(b, requires_grad=True)
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            loss = tsum(conv2d(xt, kt, bt, stride=2))
        backward(loss, tape)
        for arr, grad in ((x, xt.grad), (k, kt.grad), (b, bt.grad)):
            num = numeric_grad(lambda: conv2d(Tensor(x), Tensor(k), Tensor(b),
                                              stride=2).data.sum(), arr)
            np.testing.assert_allclose(grad, num, atol=1e-6)


class TestDense:
    def test_identity(self):
        out = dense(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_hand_arithmetic(self):
        out = dense(Tensor([[1.0, 1.0]]), Tensor([[2.0], [3.0]]), Tensor([1.0]))
        assert out.data.item() == pytest.approx(6.0)

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 8))
        w = rng.standard_normal((8, 3))
        b = rng.standard_normal(3)
        expected = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                expected[i, j] = b[j]
                for m in range(8):
                    expected[i, j] += x[i, m] * w[m, j]
        np.testing.assert_allclose(dense(Tensor(x), Tensor(w), Tensor(b)).data,
                                   expected, atol=1e-12)

    def test_gradients_match_loop_oracle(self):
        rng = np.random.default_rng(10)
        x, w, b = rng.standard_normal((4, 5)), rng.standard_normal((5, 3)), rng.standard_normal(3)
        g = rng.standard_normal((4, 3))
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        backprop(dense, (xt, wt, bt), g)
        dx, dw, db = np.zeros_like(x), np.zeros_like(w), np.zeros_like(b)
        for i in range(4):
            for j in range(3):
                db[j] += g[i, j]
                for m in range(5):
                    dw[m, j] += x[i, m] * g[i, j]
                    dx[i, m] += g[i, j] * w[m, j]
        for got, want in ((xt.grad, dx), (wt.grad, dw), (bt.grad, db)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_rejects_rank3(self):
        with pytest.raises(ShapeError):
            dense(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))


class TestActivations:
    def test_sigmoid_symmetry(self):
        assert sigmoid(Tensor([0.0])).data.item() == pytest.approx(0.5)

    def test_relu_definition(self):
        np.testing.assert_array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_relu_gradient_is_zero_at_zero(self):
        x = Tensor([-1.0, 0.0, 2.0, 0.0], requires_grad=True)
        backprop(relu, (x,), np.array([3.0, 5.0, 7.0, 11.0]))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 7.0, 0.0])

    def test_sigmoid_gradient_fd(self):
        x = np.array([1.0])
        g = analytic_grad(sigmoid, x)
        num = numeric_grad(lambda: sigmoid(Tensor(x)).data.sum(), x, h=1e-6)
        np.testing.assert_allclose(g, num, atol=1e-7)

    def test_sigmoid_range(self):
        out = sigmoid(Tensor([-500.0, 500.0])).data
        assert np.all(out >= 0.0) and np.all(out <= 1.0) and np.all(np.isfinite(out))


class TestSpatialSoftmax:
    def test_uniform_logits(self):
        out = spatial_softmax(Tensor(np.zeros((1, 2, 2, 1))))
        np.testing.assert_allclose(out.data, 0.25)

    def test_analytic_softmax(self):
        out = spatial_softmax(Tensor(np.array([0.0, np.log(3.0)]).reshape(1, 1, 2, 1)))
        np.testing.assert_allclose(out.data.ravel(), [0.25, 0.75], atol=1e-12)

    def test_sums_and_jvp(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4, 4, 3))
        out = spatial_softmax(Tensor(x)).data
        np.testing.assert_allclose(out.reshape(2, 16, 3).sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0.0) and np.all(out < 1.0)
        w = rng.standard_normal(x.shape)
        g = analytic_grad(spatial_softmax, x, weight=w)
        num = numeric_grad(lambda: (spatial_softmax(Tensor(x)).data * w).sum(), x)
        np.testing.assert_allclose(g, num, atol=1e-6)


class TestElementwise:
    def test_mul(self):
        out = elementwise("mul", Tensor([1.0, 2.0, 3.0]), Tensor([2.0, 2.0, 2.0]))
        np.testing.assert_array_equal(out.data, [2.0, 4.0, 6.0])

    def test_add_identity(self):
        x = np.array([1.5, -2.0])
        out = elementwise("add", Tensor(x), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, x)

    def test_no_broadcasting(self):
        with pytest.raises(ShapeError):
            elementwise("mul", Tensor(np.zeros(3)), Tensor(np.zeros((3, 1))))

    def test_mul_gradients_fd(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        with Tape() as tape:
            loss = tsum(elementwise("mul", at, bt))
        backward(loss, tape)
        np.testing.assert_allclose(at.grad, numeric_grad(lambda: (a * b).sum(), a), atol=1e-7)
        np.testing.assert_allclose(bt.grad, numeric_grad(lambda: (a * b).sum(), b), atol=1e-7)


class TestGlobalAveragePool:
    def test_constant(self):
        out = global_average_pool(Tensor(np.full((1, 3, 3, 2), 3.0)))
        np.testing.assert_allclose(out.data, 3.0)

    def test_arithmetic(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 2, 2, 1)
        assert global_average_pool(Tensor(x)).data.item() == pytest.approx(2.5)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4, 3))
        expected = np.zeros((2, 3))
        for n in range(2):
            for c in range(3):
                s = 0.0
                for i in range(3):
                    for j in range(4):
                        s += x[n, i, j, c]
                expected[n, c] = s / 12
        np.testing.assert_allclose(global_average_pool(Tensor(x)).data, expected, atol=1e-12)

    def test_gradient_is_upstream_over_area(self):
        g = np.random.default_rng(12).standard_normal((2, 3))
        x = Tensor(np.zeros((2, 3, 4, 3)), requires_grad=True)
        backprop(global_average_pool, (x,), g)
        expected = np.zeros(x.shape)
        for n in range(2):
            for i in range(3):
                for j in range(4):
                    expected[n, i, j] = g[n] / 12
        np.testing.assert_array_equal(x.grad, expected)


class TestDropout:
    def test_inference_identity(self):
        x = np.random.default_rng(6).standard_normal((3, 3))
        out = dropout(Tensor(x), 0.5, training=False)
        np.testing.assert_array_equal(out.data, x)

    def test_zero_rate(self):
        x = np.random.default_rng(7).standard_normal(10)
        out = dropout(Tensor(x), 0.0, training=True, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x)

    def test_rejects_rate_one(self):
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), 1.0, training=True, rng=np.random.default_rng(0))

    def test_monte_carlo(self):
        rng = np.random.default_rng(42)
        x = np.full(10**5, 2.0)
        out = dropout(Tensor(x), 0.3, training=True, rng=rng).data
        surviving = (out != 0).mean()
        assert abs(surviving - 0.7) < 0.01
        assert abs(out.mean() - x.mean()) < 0.01 * abs(x.mean())

    def test_training_gradient_is_upstream_times_mask(self):
        g = np.random.default_rng(13).standard_normal(50)
        x = Tensor(np.ones(50), requires_grad=True)  # so the output is the mask itself
        out = backprop(lambda t: dropout(t, 0.4, training=True, rng=np.random.default_rng(1)),
                       (x,), g)
        assert 0 < np.count_nonzero(out.data) < 50
        np.testing.assert_array_equal(x.grad, g * out.data)

    def test_inference_gradient_is_upstream(self):
        g = np.random.default_rng(14).standard_normal((3, 3))
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        backprop(lambda t: dropout(t, 0.5, training=False), (x,), g)
        np.testing.assert_array_equal(x.grad, g)


# every tape op, as (op, input shapes), with the inputs in the op's argument order
TAPE_OPS = {
    "conv2d": (conv2d, [(2, 5, 5, 3), (3, 3, 3, 2), (2,)]),
    "conv2d_stride2": (lambda x, k, b: conv2d(x, k, b, stride=2), [(1, 5, 4, 2), (3, 3, 2, 2), (2,)]),
    "dense": (dense, [(4, 5), (5, 3), (3,)]),
    "relu": (relu, [(2, 3)]),
    "sigmoid": (sigmoid, [(2, 3)]),
    "spatial_softmax": (spatial_softmax, [(2, 3, 3, 2)]),
    "softmax_rows": (softmax_rows, [(3, 4)]),
    "elementwise_mul": (lambda a, b: elementwise("mul", a, b), [(2, 3), (2, 3)]),
    "elementwise_add": (lambda a, b: elementwise("add", a, b), [(2, 3), (2, 3)]),
    "global_average_pool": (global_average_pool, [(2, 3, 3, 4)]),
    "dropout_training": (lambda x: dropout(x, 0.5, training=True, rng=np.random.default_rng(0)),
                         [(4, 5)]),
    "dropout_inference": (lambda x: dropout(x, 0.5, training=False), [(4, 5)]),
    "tsum": (tsum, [(2, 3)]),
    "cross_entropy": (lambda z: cross_entropy(z, np.eye(3)[[0, 2]]), [(2, 3)]),
}


def op_inputs(shapes, requires_grad):
    rng = np.random.default_rng(15)
    return [Tensor(rng.standard_normal(shape), requires_grad=requires_grad) for shape in shapes]


class TestRecord:
    @pytest.mark.parametrize("name", TAPE_OPS)
    def test_gradients_share_no_memory(self, name):
        # a first gradient is stored by reference, so each must be an array of its own
        op, shapes = TAPE_OPS[name]
        inputs = op_inputs(shapes, requires_grad=True)
        g = np.random.default_rng(16).standard_normal(op(*inputs).shape)
        out = backprop(op, inputs, g)
        for i, t in enumerate(inputs):
            assert t.grad is not None and t.grad.shape == t.shape
            assert not np.shares_memory(t.grad, out.grad)
            for other in inputs[:i]:
                assert not np.shares_memory(t.grad, other.grad)

    @pytest.mark.parametrize("name", TAPE_OPS)
    def test_no_input_needs_a_gradient_records_nothing(self, name):
        op, shapes = TAPE_OPS[name]
        with Tape() as tape:
            out = op(*op_inputs(shapes, requires_grad=False))
        assert tape.nodes == [] and not out.requires_grad

    def test_conv2d_constant_image_gets_no_gradient(self):
        x, k, b = op_inputs([(1, 4, 4, 2), (3, 3, 2, 2), (2,)], requires_grad=True)
        x.requires_grad = False
        backprop(conv2d, (x, k, b), np.ones((1, 4, 4, 2)))
        assert x.grad is None and k.grad is not None and b.grad is not None

    def test_dense_constant_weight_gets_no_gradient(self):
        x, w, b = op_inputs([(4, 5), (5, 3), (3,)], requires_grad=True)
        w.requires_grad = False
        backprop(dense, (x, w, b), np.ones((4, 3)))
        assert w.grad is None and x.grad is not None and b.grad is not None

    @pytest.mark.parametrize("op", ["mul", "add"])
    @pytest.mark.parametrize("constant", [0, 1])
    def test_elementwise_constant_operand_gets_no_gradient(self, op, constant):
        inputs = op_inputs([(2, 3), (2, 3)], requires_grad=True)
        inputs[constant].requires_grad = False
        backprop(lambda a, b: elementwise(op, a, b), inputs, np.ones((2, 3)))
        assert inputs[constant].grad is None and inputs[1 - constant].grad is not None


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(8).standard_normal((2, 3)), requires_grad=True)
        with Tape() as tape:
            loss = tsum(x)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = tsum(elementwise("mul", x, x))
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_fanout_sums_branches(self):
        # x feeds two branches: x*x and x+x; grad = 2x + 2
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            a = elementwise("mul", x, x)
            b = elementwise("add", x, x)
            loss = tsum(elementwise("add", a, b))
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, [8.0])

    def test_first_gradient_is_stored_as_a_copy(self):
        # add hands one upstream array to both inputs; kept by reference, a later
        # gradient into `a` would also land in b.grad and in that array
        a, b = Tensor([1.0, 2.0], requires_grad=True), Tensor([3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            s = elementwise("add", a, b)
            loss = tsum(s)
        backward(loss, tape)
        a.accumulate_grad(np.array([10.0, 20.0]))
        np.testing.assert_array_equal(a.grad, [11.0, 21.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])
        np.testing.assert_array_equal(s.grad, [1.0, 1.0])
        # global_average_pool's gradient is a read-only broadcast view
        x = Tensor(np.ones((1, 2, 2, 1)), requires_grad=True)
        with Tape() as tape:
            loss = tsum(elementwise("add", global_average_pool(x), global_average_pool(x)))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.full((1, 2, 2, 1), 0.5))

    def test_fresh_first_gradient_is_kept_by_identity(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        first = np.array([3.0, 4.0])
        x.accumulate_grad(first)
        assert x.grad is first
        x.accumulate_grad(np.array([0.5, 0.25]))
        assert x.grad is first
        np.testing.assert_array_equal(first, [3.5, 4.25])

    def test_rejects_nonscalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = elementwise("add", x, x)
        with pytest.raises(ShapeError):
            backward(y, tape)


class TestGradCheck:
    def test_linear_model_exact(self):
        theta = Tensor(np.array([2.0]), requires_grad=True)

        def f():
            return tsum(elementwise("mul", theta, Tensor([3.0])))

        report = grad_check(f, {"theta": theta}, tol=1e-10)
        assert report["passed"]
        assert report["max_relative_error"] < 1e-10

    def test_conv_sigmoid_sum(self):
        rng = np.random.default_rng(9)
        k = Tensor(rng.standard_normal((3, 3, 2, 2)) * 0.5, requires_grad=True)
        b = Tensor(rng.standard_normal(2) * 0.5, requires_grad=True)
        x = Tensor(rng.standard_normal((1, 4, 4, 2)))

        def f():
            return tsum(sigmoid(conv2d(x, k, b)))

        report = grad_check(f, {"k": k, "b": b}, tol=1e-6)
        assert report["passed"], report

    def test_non_contiguous_parameter(self):
        # a transposed view: perturbing a raveled copy would leave the model unchanged
        w = Tensor(np.arange(1.0, 7.0).reshape(2, 3).T, requires_grad=True)
        c = Tensor(np.arange(6.0).reshape(3, 2))
        assert not w.data.flags.c_contiguous

        def f():
            return tsum(elementwise("mul", elementwise("mul", w, w), c))

        report = grad_check(f, {"w": w})
        assert report["passed"], report
        assert report["max_relative_error"] < 1e-8
