"""The desk-scale classification model and its manual backward pass.

Architecture: first layer (any of the four variants) -> ReLU -> frozen 3x3
conv (C_out -> 2*C_out, padding 1) -> ReLU -> adaptive average pool ->
linear classifier. Exactly the first layer's trainable blocks and the
classifier train; gradients still flow through every frozen stage, which is
the property the frozen mid conv exists to exercise.

Checkpoints use the ``MDL1`` container: magic, a key=value metadata text
block (enough to rebuild the architecture), then tagged parameter blocks,
each with a trainability flag that must match the architecture.
"""

from __future__ import annotations

import numpy as np

from .._io import Writer, reading
from ..decomp import _COMPONENTS, CP, TUCKER
from ..errors import DataError, FormatError, ShapeError
from ..filteradapt import AdaptedLayer, FilterBank
from .conv import _batched, _pair, adaptive_avg_pool, adaptive_avg_pool_backward
from .layers import (
    Conv2dLayer,
    CpFirstLayer,
    Linear,
    Param,
    ReduceFirstLayer,
    ReLU,
    ScratchFirstLayer,
    TuckerFirstLayer,
    _fan_in_uniform,
)

__all__ = [
    "Model",
    "build_model",
    "first_layer_from_adapted",
    "cross_entropy",
    "forward_backward",
    "count_trainable",
    "save_model",
    "load_model",
    "MDL_MAGIC",
]

MDL_MAGIC = b"MDL1"


class Model:
    """First layer + frozen mid conv + pooling + linear head."""

    def __init__(self, first, mid: Conv2dLayer, pool, head: Linear):
        self.first = first
        self.relu1 = ReLU()
        self.mid = mid
        self.relu2 = ReLU()
        self.pool = _pair(pool)
        self.head = head
        if mid.in_channels != first.out_channels:
            raise ShapeError(
                f"mid conv expects {mid.in_channels} channels, first layer gives {first.out_channels}"
            )
        features = mid.out_channels * self.pool[0] * self.pool[1]
        if head.weight.value.shape[1] != features:
            raise ShapeError(
                f"head expects {head.weight.value.shape[1]} features, pooled mid conv gives {features}"
            )

    def params(self):
        return self.first.params() + self.mid.params() + self.head.params()

    def named_params(self) -> dict[str, Param]:
        return {p.name: p for p in self.params()}

    def trainable_params(self):
        return [p for p in self.params() if p.trainable]

    def zero_grads(self):
        for p in self.params():
            p.grad = None

    @property
    def in_channels(self):
        return self.first.in_channels

    @property
    def num_classes(self):
        return self.head.weight.value.shape[0]

    def forward(self, x) -> np.ndarray:
        x4, _ = _batched(x)
        if x4.shape[1] != self.first.in_channels:
            raise ShapeError(
                f"batch has {x4.shape[1]} channels, model expects {self.first.in_channels}"
            )
        a = self.relu1.forward(self.first.forward(x4))
        b = self.relu2.forward(self.mid.forward(a))
        self._feat_shape = b.shape
        p = adaptive_avg_pool(b, self.pool)
        self._pool_shape = p.shape
        return self.head.forward(p.reshape(p.shape[0], -1))

    def backward(self, dlogits) -> None:
        dflat = self.head.backward(dlogits)
        dp = dflat.reshape(self._pool_shape)
        db = adaptive_avg_pool_backward(dp, self._feat_shape, self.pool)
        da = self.mid.backward(self.relu2.backward(db))
        self.first.backward(self.relu1.backward(da))


_FIRST_LAYERS = {CP: CpFirstLayer, TUCKER: TuckerFirstLayer}


def first_layer_from_adapted(adapted: AdaptedLayer, stride=1, padding=0):
    return _FIRST_LAYERS[adapted.kind](adapted, stride=stride, padding=padding)


def _assemble(first, mid_weight, head_weight, head_bias, pool) -> Model:
    """The model around ``first``: frozen mid conv, ReLUs, pool and trainable head."""
    mid = Conv2dLayer(Param("mid.weight", mid_weight, False), None, stride=1, padding=1)
    head = Linear(Param("head.weight", head_weight, True), Param("head.bias", head_bias, True))
    return Model(first, mid, pool, head)


def build_model(first, classes: int, pool=(1, 1), seed: int = 0) -> Model:
    """Attach the frozen mid conv and a fresh classifier head to a first layer."""
    if classes < 2:
        raise ShapeError("need at least 2 classes")
    c_out = first.out_channels
    c_mid = 2 * c_out
    rng = np.random.default_rng(seed)
    mid_w = _fan_in_uniform(rng, (c_mid, c_out, 3, 3), c_out * 9)
    th, tw = _pair(pool)
    features = c_mid * th * tw
    head_w = _fan_in_uniform(rng, (classes, features), features)
    return _assemble(first, mid_w, head_w, np.zeros(classes), pool)


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy with log-sum-exp stabilization.

    Returns (loss, dlogits, accuracy); dlogits is the gradient of the mean
    loss, i.e. (softmax - onehot) / batch.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= k:
        raise DataError(
            f"labels must lie in [0, {k}), got range [{labels.min()}, {labels.max()}]"
        )
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    z = e.sum(axis=1, keepdims=True)
    logp = (logits - m) - np.log(z)
    idx = np.arange(n)
    loss = float(-logp[idx, labels].mean())
    d = e / z
    d[idx, labels] -= 1.0
    d /= n
    accuracy = float((logits.argmax(axis=1) == labels).mean())
    return loss, d, accuracy


def forward_backward(model: Model, batch, labels):
    """One full pass: returns (loss, accuracy, grads for trainable blocks)."""
    model.zero_grads()
    logits = model.forward(batch)
    loss, dlogits, accuracy = cross_entropy(logits, np.asarray(labels))
    model.backward(dlogits)
    grads = {p.name: p.grad for p in model.trainable_params()}
    return loss, accuracy, grads


def count_trainable(model: Model) -> int:
    return int(sum(p.value.size for p in model.trainable_params()))


def save_model(model: Model, path: str, meta: dict | None = None) -> None:
    """Write an MDL1 checkpoint.

    Layout: magic ``b"MDL1"``, u32 metadata length plus UTF-8 ``key=value``
    lines, u32 block count, then per block: u16 name length, name, u8
    trainable flag, u32 order, u32 extents, float64 little-endian data.
    """
    (sh, sw), (ph, pw) = _pair(model.first.stride), _pair(model.first.padding)
    if sh != sw or ph != pw:
        raise ShapeError(f"MDL1 holds one stride and one padding, not stride {(sh, sw)} "
                         f"and padding {(ph, pw)}")
    # The architecture keys come from the model, whatever the caller passed.
    meta = {**(meta or {}), "method": model.first.kind, "classes": str(model.num_classes),
            "pool_h": str(model.pool[0]), "pool_w": str(model.pool[1]),
            "stride": str(sh), "padding": str(ph)}
    w = Writer(MDL_MAGIC)
    w.text("".join(f"{k}={v}\n" for k, v in sorted(meta.items())))
    params = model.params()
    w.u32(len(params))
    for p in params:
        w.text(p.name, prefix=2, encoding="ascii")
        w.u8(1 if p.trainable else 0)
        w.u32(p.value.ndim, *p.value.shape)
        w.array(p.value, "<f8")
    w.save(path)


def load_model(path: str):
    """Read an MDL1 checkpoint; returns (model, meta)."""
    blocks = {}
    with reading(path, MDL_MAGIC) as r:
        text = r.text("metadata")
        for _ in range(r.u32("block count")):
            name = r.text("block name", prefix=2, encoding="ascii")
            flag = r.u8("trainable flag")
            shape = r.u32s(r.u32("block order"), "block extents")
            blocks[name] = (flag, r.array("<f8", shape, f"block {name}"))

    meta = {}
    for line in text.splitlines():
        if line.strip():
            k, _, v = line.partition("=")
            meta[k] = v
    method = meta.get("method", "")

    def meta_int(key, default, low):
        raw = meta.get(key, default)
        try:
            value = int(raw)
        except ValueError:
            value = low - 1
        if value < low:
            raise FormatError(f"checkpoint metadata {key}={raw!r} is not an integer >= {low}")
        return value

    stride = meta_int("stride", "1", 1)
    padding = meta_int("padding", "0", 0)
    pool = (meta_int("pool_h", "1", 1), meta_int("pool_w", "1", 1))

    def take(name):
        if name not in blocks:
            raise FormatError(f"checkpoint is missing block {name!r}")
        return blocks[name][1]

    def maybe(name):
        return blocks[name][1] if name in blocks else None

    if method in _FIRST_LAYERS:
        adapted = AdaptedLayer(kind=method, spectral=take("first.spectral"),
                               bias=maybe("first.bias"),
                               **{n: take(f"first.{n}") for n in _COMPONENTS[method][1:]})
        first = first_layer_from_adapted(adapted, stride=stride, padding=padding)
    elif method == "reduce":
        rgb = FilterBank(take("first.rgb_weight"), maybe("first.rgb_bias"))
        first = ReduceFirstLayer(take("first.w1"), take("first.b1"),
                                 take("first.w2"), take("first.b2"), rgb,
                                 stride=stride, padding=padding)
    elif method == "scratch":
        first = ScratchFirstLayer(take("first.weight"), maybe("first.bias"),
                                  stride=stride, padding=padding)
    else:
        raise FormatError(f"checkpoint has unknown method {method!r}")

    model = _assemble(first, take("mid.weight"), take("head.weight"), take("head.bias"), pool)
    # Trainability is the architecture's, not the file's: a flag can only confirm it.
    for p in model.params():
        flag = blocks.pop(p.name)[0]
        if flag != p.trainable:
            raise FormatError(f"block {p.name!r} has trainable flag {flag}, "
                              f"but a {method} model's {p.name} has {int(p.trainable)}")
    if blocks:
        raise FormatError(f"a {method} model has no block {', '.join(map(repr, blocks))}")
    return model, meta
