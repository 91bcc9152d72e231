"""Central finite-difference verification of the analytic gradients.

Every element of every trainable block is perturbed by +/-eps and the loss
difference compared against the backward pass. The worst relative error per
block is reported; a healthy model sits far below 1e-5 in float64.
"""

from __future__ import annotations

import numpy as np

from .model import Model, cross_entropy, forward_backward

__all__ = ["gradient_check", "numeric_gradients"]


def _loss_only(model: Model, batch, labels) -> float:
    loss, _, _ = cross_entropy(model.forward(batch), labels)
    return loss


def numeric_gradients(model: Model, batch, labels, eps: float = 1e-5) -> dict[str, np.ndarray]:
    """Central differences of the loss for every element of every trainable block."""
    numeric = {}
    for p in model.trainable_params():
        flat = p.value.reshape(-1)  # view; mutated in place below and restored
        grad = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = _loss_only(model, batch, labels)
            flat[i] = orig - eps
            lo = _loss_only(model, batch, labels)
            flat[i] = orig
            grad[i] = (hi - lo) / (2.0 * eps)
        numeric[p.name] = grad.reshape(p.value.shape)
    return numeric


def gradient_check(model: Model, batch, labels, eps: float = 1e-5) -> dict[str, float]:
    """Worst relative error between analytic and numeric gradients, per block."""
    batch = np.asarray(batch, dtype=np.float64)
    labels = np.asarray(labels)
    _, _, grads = forward_backward(model, batch, labels)

    worst = {}
    for name, numeric in numeric_gradients(model, batch, labels, eps).items():
        analytic = grads[name]
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        worst[name] = float((np.abs(analytic - numeric) / denom).max())
    return worst
