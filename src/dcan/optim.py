"""Cross-entropy loss, AdamW update, and the unit-norm column projection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import ShapeError, Tensor, _record, softmax


@dataclass
class AdamWConfig:
    eta: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 1e-4

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.eta <= 0.0 or self.epsilon <= 0.0 or self.weight_decay < 0.0:
            raise ValueError("eta and epsilon must be positive, weight_decay non-negative")


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-softmax of `logits` [N, C] at one-hot `labels` [N, C].

    Log-softmax and NLL are fused, so the loss stays finite and its gradient
    (softmax(logits) - labels) / N stays informative however confident and
    wrong a row is.
    """
    y = np.asarray(labels, dtype=np.float64)
    if logits.shape != y.shape:
        raise ShapeError(f"cross_entropy shape mismatch: {logits.shape} vs {y.shape}")
    if not (np.all((y == 0.0) | (y == 1.0)) and (y.sum(axis=1) == 1.0).all()):
        raise ValueError("labels must be one-hot")
    n = y.shape[0]
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return _record(-(y * log_p).sum() / n,
                   (logits, lambda g: float(g) * (softmax(logits.data, axis=1) - y) / n))


class AdamWState:
    """AdamW first and second moments per parameter name, and their step count."""

    def __init__(self, params: dict[str, Tensor]):
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.step = 0


def adamw_step(params: dict[str, Tensor], state: AdamWState, config: AdamWConfig) -> None:
    """One decoupled-weight-decay Adam step; zeroes gradients afterwards."""
    missing = [name for name, p in params.items() if p.grad is None]
    if missing:
        raise ValueError(f"adamw_step: no gradient for {missing}; run backward first")
    state.step += 1
    for name, p in params.items():
        g = p.grad
        m = state.m[name] = config.beta1 * state.m[name] + (1.0 - config.beta1) * g
        v = state.v[name] = config.beta2 * state.v[name] + (1.0 - config.beta2) * g * g
        m_hat = m / (1.0 - config.beta1 ** state.step)
        v_hat = v / (1.0 - config.beta2 ** state.step)
        p.data = p.data - config.eta * (
            m_hat / (np.sqrt(v_hat) + config.epsilon) + config.weight_decay * p.data)
        p.zero_grad()


def unit_norm_project(weight: Tensor) -> None:
    """Rescale each column of a [Din, Dout] matrix to unit L2 norm, in place."""
    if weight.data.ndim != 2:
        raise ShapeError(f"unit_norm_project expects a rank-2 matrix, got rank {weight.data.ndim}")
    norms = np.linalg.norm(weight.data, axis=0)
    dead = np.flatnonzero(norms <= 1e-12)
    if dead.size:
        raise ValueError(f"unit_norm_project: zero column(s) at {dead.tolist()} (dead unit)")
    weight.data = weight.data / norms
