"""Adam optimizer over named parameter blocks.

Standard bias-corrected Adam (beta1=0.9, beta2=0.999, eps=1e-8), no weight
decay. The caller supplies the learning rate each step; the per-epoch
schedule lr0 * gamma**epoch lives in the training loop.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, params):
        self.params = [p for p in params if p.trainable]
        self.t = 0
        self.m = {p.name: np.zeros_like(p.value) for p in self.params}
        self.v = {p.name: np.zeros_like(p.value) for p in self.params}

    def step(self, lr: float) -> None:
        """Update every trainable block from its ``grad`` in a fixed order (deterministic)."""
        self.t += 1
        b1c = 1.0 - BETA1 ** self.t
        b2c = 1.0 - BETA2 ** self.t
        for p in self.params:
            g = p.grad
            if g is None:
                raise ValueError(f"no gradient for trainable block {p.name!r}")
            m = self.m[p.name]
            v = self.v[p.name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            p.value -= lr * (m / b1c) / (np.sqrt(v / b2c) + EPS)
