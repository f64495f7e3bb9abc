"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

Tensors use channels-last layout [N, H, W, C] for rank-4 data. A Tape records
op nodes in execution order during a forward pass; backward() replays them in
exact reverse order, accumulating gradients additively across fan-out. Tapes
are rebuilt per forward pass; there is no graph reuse.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """An n-dimensional float64 array with an optional gradient buffer.

    A trainable parameter is a Tensor with requires_grad=True. Values are
    immutable within a forward/backward pass, where only `grad` mutates; the
    optimizer replaces a parameter's `data` between passes.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            self.grad = g  # kept as handed over: see `_record`
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    """One recorded op: output tensor and backward rule."""

    __slots__ = ("output", "backward_fn")

    def __init__(self, output, backward_fn):
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of op nodes for one forward pass.

    Use as a context manager; ops executed inside record themselves.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False


_TAPE_STACK: list[Tape] = []


def _record(data, *rules) -> Tensor:
    """The op output `Tensor(data)`, recorded on the open tape when an input needs a gradient.

    `rules` are (input, rule) pairs. The node's backward accumulates `rule(g)`
    into each input that needs a gradient, in the order given; `rule(g)` must
    return an array that nothing else holds, because a first gradient is
    stored by reference.
    """
    out = Tensor(data)
    if _TAPE_STACK:
        live = [pair for pair in rules if pair[0].requires_grad]
        if live:
            out.requires_grad = True

            def backward_fn(g):
                for t, rule in live:
                    t.accumulate_grad(rule(g))

            _TAPE_STACK[-1].nodes.append(_Node(out, backward_fn))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Propagate dLoss/dTensor to every requires_grad tensor on the tape.

    Gradients accumulate additively across fan-out and across calls; callers
    (the optimizer) are responsible for zeroing parameter gradients.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    loss.accumulate_grad(np.ones_like(loss.data))
    for node in reversed(tape.nodes):
        if node.output.grad is None:
            continue
        node.backward_fn(node.output.grad)


# ---------------------------------------------------------------------------
# ops


def _same_pad(extent: int, k: int, stride: int):
    out = -(-extent // stride)  # ceil division
    total = max((out - 1) * stride + k - extent, 0)
    lo = total // 2
    return out, lo, total - lo  # extra pixel goes to the bottom/right


def _bordered(a, top, bottom, left, right):
    """`a`, C-contiguous, inside a zero border; only the border is zero-filled."""
    if not (top or bottom or left or right):
        return np.ascontiguousarray(a)
    n, h, w, c = a.shape
    out = np.empty((n, top + h + bottom, left + w + right, c))
    out[:, :top] = out[:, top + h:] = out[:, :, :left] = out[:, :, left + w:] = 0.0
    out[:, top:top + h, left:left + w] = a
    return out


def _windows(a, top, left, rows, cols, kh, kw, stride):
    """im2col: the kh x kw windows of C-contiguous `a`, `stride` apart from (top, left),
    as [n*rows*cols, kh*kw*c]; the np.ndarray view is cheaper than as_strided and bounds-checked."""
    (n, _, _, c), (sn, sh, sw, sc) = a.shape, a.strides
    view = np.ndarray((n, rows, cols, kh, kw, c), a.dtype, a, top * sh + left * sw,
                      (sn, sh * stride, sw * stride, sh, sw, sc))
    return np.ascontiguousarray(view).reshape(n * rows * cols, kh * kw * c)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """2-D convolution (cross-correlation), NHWC input, [k,k,Cin,Cout] kernel,
    "same" zero padding: the output is ceil(H/stride) x ceil(W/stride)."""
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be rank 4, got rank {x.data.ndim}")
    if kernel.data.ndim != 4:
        raise ShapeError(f"conv2d kernel must be rank 4, got rank {kernel.data.ndim}")
    n, h, w, cin = x.shape
    kh, kw, kcin, cout = kernel.shape
    if kcin != cin:
        raise ShapeError(f"conv2d channel axis mismatch: input has {cin}, kernel expects {kcin}")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d bias axis mismatch: expected ({cout},), got {bias.shape}")
    if kh < 1 or stride < 1:
        raise ValueError("conv2d requires kernel size >= 1 and stride >= 1")
    ho, pt, pb = _same_pad(h, kh, stride)
    wo, pl, pr = _same_pad(w, kw, stride)
    flat = _windows(_bordered(x.data, pt, pb, pl, pr), 0, 0, ho, wo, kh, kw, stride)
    y = flat @ kernel.data.reshape(kh * kw * cin, cout)
    y += bias.data

    def dx(g):
        # phase (r, c) of dx, rows r, r + stride, ... by cols c, c + stride, ..., takes only
        # the taps ti, ti + stride, ... by tj, tj + stride, ...: one stride-1 correlation of
        # g with those taps flipped. g's zero border, most taps per phase - 1, holds them all.
        bh, bw = -(-kh // stride) - 1, -(-kw // stride) - 1
        gz = _bordered(g, bh, bh, bw, bw)
        grad = np.empty_like(x.data)
        for r in range(min(stride, h)):
            for c in range(min(stride, w)):
                ti, tj = (r + pt) % stride, (c + pl) % stride
                kf = kernel.data[ti::stride, tj::stride][::-1, ::-1].swapaxes(2, 3)
                (u, v), phase = kf.shape[:2], grad[:, r::stride, c::stride]
                sr = bh + (r + pt) // stride - u + 1 if u else 0  # no tap: reads nothing
                sc = bw + (c + pl) // stride - v + 1 if v else 0
                win = _windows(gz, sr, sc, *phase.shape[1:3], u, v, 1)
                phase[...] = (win @ kf.reshape(-1, cin)).reshape(phase.shape)
        return grad

    return _record(y.reshape(n, ho, wo, cout),
                   (kernel, lambda g: (flat.T @ g.reshape(len(flat), cout)).reshape(kernel.shape)),
                   (bias, lambda g: g.reshape(len(flat), cout).sum(axis=0)),
                   (x, dx))


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map on rank-2 input: x @ weight + bias."""
    if x.data.ndim != 2:
        raise ShapeError(f"dense input must be rank 2, got rank {x.data.ndim}")
    n, din = x.shape
    if weight.shape[0] != din:
        raise ShapeError(f"dense feature axis mismatch: input has {din}, weight expects {weight.shape[0]}")
    return _record(x.data @ weight.data + bias.data,
                   (weight, lambda g: x.data.T @ g),
                   (bias, lambda g: g.sum(axis=0)),
                   (x, lambda g: g @ weight.data.T))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0  # relu'(0) := 0
    return _record(np.maximum(x.data, 0.0), (x, lambda g: g * mask))


def sigmoid(x: Tensor) -> Tensor:
    # split by sign for overflow-free evaluation
    d = x.data
    e = np.exp(-np.abs(d))
    s = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _record(s, (x, lambda g: g * s * (1.0 - s)))


def softmax(z: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of a plain array along `axis`, shifted by the max to stay finite."""
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def spatial_softmax(x: Tensor) -> Tensor:
    """Softmax over the H*W positions of each (sample, channel) slice."""
    if x.data.ndim != 4:
        raise ShapeError(f"spatial_softmax input must be rank 4, got rank {x.data.ndim}")
    n, h, w, c = x.shape
    s = softmax(x.data.reshape(n, h * w, c), axis=1)

    def dx(g):
        gf = g.reshape(n, h * w, c)
        dot = (gf * s).sum(axis=1, keepdims=True)
        return (s * (gf - dot)).reshape(n, h, w, c)

    return _record(s.reshape(n, h, w, c), (x, dx))


# unused by dcan; perfbench's tracer patches it by name until ROADMAP item 4 removes it
def softmax_rows(x: Tensor) -> Tensor:
    """Row softmax on rank-2 input (class probabilities)."""
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows input must be rank 2, got rank {x.data.ndim}")
    s = softmax(x.data, axis=1)
    return _record(s, (x, lambda g: s * (g - (g * s).sum(axis=1, keepdims=True))))


def elementwise(op: str, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise mul/add on identical shapes; no broadcasting."""
    if a.shape != b.shape:
        raise ShapeError(f"elementwise {op}: shape mismatch {a.shape} vs {b.shape}")
    if op == "mul":
        return _record(a.data * b.data, (a, lambda g: g * b.data), (b, lambda g: g * a.data))
    if op == "add":
        return _record(a.data + b.data, (a, np.ndarray.copy), (b, np.ndarray.copy))
    raise ValueError(f"unknown elementwise op {op!r}")


def global_average_pool(x: Tensor) -> Tensor:
    """Per-channel spatial mean: [N,H,W,C] -> [N,C]."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_average_pool input must be rank 4, got rank {x.data.ndim}")
    n, h, w, c = x.shape
    return _record(x.data.mean(axis=(1, 2)),
                   (x, lambda g: np.broadcast_to(g[:, None, None, :] / (h * w), x.shape).copy()))


def dropout(x: Tensor, rate: float, training: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; exact identity in inference mode."""
    if rate >= 1.0 or rate < 0.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return _record(x.data, (x, np.ndarray.copy))
    if rng is None:
        raise ValueError("dropout in training mode requires a seeded generator")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return _record(x.data * mask, (x, lambda g: g * mask))


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements (scalar)."""
    return _record(x.data.sum(), (x, lambda g: np.full(x.shape, float(g))))


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def grad_check(model_fn, params: dict[str, Tensor], h: float = 1e-5,
               tol: float = 1e-4) -> dict:
    """Compare analytic gradients of model_fn() against central differences.

    model_fn must be deterministic (dropout disabled) and return a scalar
    Tensor when run under the tape it is handed. Returns a report mapping
    parameter name -> max relative error, plus an overall pass flag.
    """
    with Tape() as tape:
        loss = model_fn()
        base = float(loss.data)
    for p in params.values():
        p.zero_grad()
    backward(loss, tape)
    with Tape():
        if abs(float(model_fn().data) - base) > 1e-12 * max(1.0, abs(base)):
            raise ValueError("model_fn is nondeterministic; disable dropout / fix seeds")

    report = {}
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        worst = 0.0
        for i in np.ndindex(p.shape):  # C order; perturbs p.data itself, contiguous or not
            orig = p.data[i]
            p.data[i] = orig + h
            fp = float(model_fn().data)
            p.data[i] = orig - h
            fm = float(model_fn().data)
            p.data[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = analytic[i]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, rel)
        report[name] = worst
    for p in params.values():
        p.zero_grad()
    return {"per_parameter": report,
            "max_relative_error": max(report.values()) if report else 0.0,
            "passed": all(v < tol for v in report.values())}
