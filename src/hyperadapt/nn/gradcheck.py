"""Central finite-difference verification of the analytic gradients.

Every element of every trainable block is perturbed by +/-eps and the loss
difference compared against the backward pass. The worst relative error per
block is reported; a healthy model sits far below 1e-5 in float64.
"""

from __future__ import annotations

import numpy as np

from .model import Model, cross_entropy, forward_backward

__all__ = ["gradient_check"]


def _loss_only(model: Model, batch, labels) -> float:
    loss, _, _ = cross_entropy(model.forward(batch), labels)
    return loss


def gradient_check(model: Model, batch, labels, eps: float = 1e-5) -> dict[str, float]:
    """Worst relative error between analytic and numeric gradients, per block."""
    batch = np.asarray(batch, dtype=np.float64)
    labels = np.asarray(labels)
    _, _, grads = forward_backward(model, batch, labels)

    worst = {}
    for p in model.trainable_params():
        analytic = grads[p.name].ravel()
        flat = p.value.reshape(-1)  # view; mutated in place below and restored
        numeric = np.empty_like(analytic)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = _loss_only(model, batch, labels)
            flat[i] = orig - eps
            lo = _loss_only(model, batch, labels)
            flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * eps)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        worst[p.name] = float((np.abs(analytic - numeric) / denom).max())
    return worst
