"""Training loop with the exponentially decaying learning-rate schedule.

One epoch: seeded shuffle, cross-entropy forward/backward per batch, one
Adam step per batch at lr0 * gamma**epoch, then a full evaluation pass on
the held-out tiles. Every epoch appends a log row (epoch, lr, train_loss,
test_loss, test_accuracy); the CSV writer emits them with a header so loss
curves can be re-plotted directly. A non-finite training or test loss
raises NumericalError. No weight decay, early stopping or augmentation.
Everything is deterministic given (seed, config, data).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._io import atomic_write_text
from .._settings import SEED, check_settings, setting
from ..errors import DataError, NumericalError
from .model import Model, cross_entropy, forward_backward
from .optim import Adam

__all__ = ["TrainConfig", "train", "evaluate", "write_log_csv", "LOG_HEADER"]

LOG_HEADER = ("epoch", "lr", "train_loss", "test_loss", "test_accuracy")


@dataclass(frozen=True)
class TrainConfig:
    """Schedule and batching of a run; a value that breaks its rule raises UsageError."""

    lr0: float = setting(0.01, (">", 0))
    gamma: float = setting(0.95, (">", 0), ("<=", 1))
    batch_size: int = setting(128, (">=", 1))
    epochs: int = setting(100, (">=", 0))
    seed: int = setting(0, SEED)

    def __post_init__(self):
        check_settings(self)


def evaluate(model: Model, tiles: np.ndarray, labels: np.ndarray, batch_size: int = 256):
    """Mean loss and accuracy over a tile set, without touching gradients."""
    n = tiles.shape[0]
    if n == 0:
        raise DataError("cannot evaluate on an empty tile set")
    total_loss = 0.0
    correct = 0.0
    for start in range(0, n, batch_size):
        sl = slice(start, min(start + batch_size, n))
        logits = model.forward(tiles[sl])
        loss, _, acc = cross_entropy(logits, labels[sl])
        count = sl.stop - sl.start
        total_loss += loss * count
        correct += acc * count
    return total_loss / n, correct / n


def train(model: Model, train_tiles, train_labels, test_tiles, test_labels,
          cfg: TrainConfig) -> list[tuple]:
    """Train in place; returns one log row per epoch."""
    train_tiles = np.asarray(train_tiles, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    test_tiles = np.asarray(test_tiles, dtype=np.float64)
    test_labels = np.asarray(test_labels)
    n = train_tiles.shape[0]
    if n == 0 or test_tiles.shape[0] == 0:
        raise DataError(f"need non-empty tile sets, got {n} train and {test_tiles.shape[0]} test")
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model.trainable_params())
    rows = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr0 * cfg.gamma ** epoch
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for bidx, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start:start + cfg.batch_size]
            loss, _, _ = forward_backward(model, train_tiles[idx], train_labels[idx])
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite training loss at epoch {epoch}, batch {bidx}"
                )
            opt.step(lr)
            epoch_loss += loss * len(idx)
        test_loss, test_acc = evaluate(model, test_tiles, test_labels)
        # Non-finite weights reach the test loss, so this check covers them too.
        if not np.isfinite(test_loss):
            raise NumericalError(f"non-finite test loss at epoch {epoch}")
        rows.append((epoch, lr, epoch_loss / n, test_loss, test_acc))
    return rows


def write_log_csv(rows, path: str) -> None:
    lines = [",".join(LOG_HEADER)]
    for epoch, lr, train_loss, test_loss, test_acc in rows:
        lines.append(f"{epoch},{lr:.12g},{train_loss:.12g},{test_loss:.12g},{test_acc:.12g}")
    atomic_write_text(path, "\n".join(lines) + "\n")
