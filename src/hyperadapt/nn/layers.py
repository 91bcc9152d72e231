"""Parameter blocks and the four first-layer variants.

Trainability is decided per named block. The decomposed pipelines train only
their spectral parameters; Reduce trains its two pointwise convolutions (with
biases); Scratch trains its full dense kernel. Spatial taps, Tucker cores,
the original RGB weights and every bias inherited from the source bank are
frozen: backward passes propagate through them but never write to them.

The separable pipelines realize an adapted layer without densifying it,
through one forward and one backward shared by both kinds. Each starts with
the same trainable stage, a pointwise conv (channels -> C_out*R) from the
spectral columns, runs its kind's list of frozen spatial stages, sums each
filter's terms and adds the frozen bias. Every spatial stage is a grouped
conv in which each output channel reads its own group of inputs:

* CP: a vertical depthwise (k1 x 1) conv from the x taps, then a horizontal
  depthwise (1 x k2) conv from the y taps; each filter has R terms.
* Tucker: one grouped (k1 x k2) conv with groups = C_out whose group o maps
  its R channels to one output through the core of filter o; each filter
  has one term.

Both match the dense convolution of the decompressed bank to float64
round-off. The pointwise stages carry no bias so the pipelines stay exactly
multilinear in the spectral parameters.

A first layer reads the model input, whose gradient nothing uses, so no
first layer computes it: every first layer's ``backward`` sets the gradients
of its trainable blocks and returns None.
"""

from __future__ import annotations

import numpy as np

from ..decomp import _COMPONENTS, CP, TUCKER
from ..errors import ShapeError, UnsupportedKindError
from ..filteradapt import AdaptedLayer, FilterBank, decompress
from .conv import _batched, _pair, conv2d, conv2d_backward

__all__ = [
    "Param",
    "ReLU",
    "Linear",
    "Conv2dLayer",
    "CpFirstLayer",
    "TuckerFirstLayer",
    "ReduceFirstLayer",
    "ScratchFirstLayer",
    "build_reduce",
    "build_scratch",
    "reduce_hidden_width",
]


class Param:
    """A named parameter block with a trainability flag and a gradient slot."""

    __slots__ = ("name", "value", "trainable", "grad")

    def __init__(self, name: str, value: np.ndarray, trainable: bool):
        self.name = name
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.trainable = trainable
        self.grad = None

    def __repr__(self):
        tag = "trainable" if self.trainable else "frozen"
        return f"Param({self.name!r}, shape={self.value.shape}, {tag})"


class ReLU:
    def forward(self, x):
        self._mask = x > 0
        return np.maximum(x, 0.0)  # NaN stays NaN, so non-finite weights reach the loss

    def backward(self, dout):
        return np.where(self._mask, dout, 0.0)


class Linear:
    """Fully connected layer: y = x @ W.T + b."""

    def __init__(self, weight: Param, bias: Param):
        if weight.value.ndim != 2 or bias.value.shape != weight.value.shape[:1]:
            raise ShapeError(
                f"linear weight {weight.value.shape} and bias {bias.value.shape} do not match"
            )
        self.weight = weight
        self.bias = bias

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x):
        self._x = x
        return x @ self.weight.value.T + self.bias.value

    def backward(self, dout):
        if self.weight.trainable:
            self.weight.grad = dout.T @ self._x
        if self.bias.trainable:
            self.bias.grad = dout.sum(axis=0)
        return dout @ self.weight.value


class Conv2dLayer:
    """Plain conv layer around a weight Param and optional bias Param."""

    # Whether backward computes and returns the input gradient.
    _need_dx = True

    def __init__(self, weight: Param, bias: Param | None = None,
                 stride=1, padding=0):
        if weight.value.ndim != 4:
            raise ShapeError(f"{weight.name} must be order 4, got shape {weight.value.shape}")
        if bias is not None and bias.value.shape != weight.value.shape[:1]:
            raise ShapeError(
                f"{bias.name} shape {bias.value.shape} does not match "
                f"{weight.value.shape[0]} output channels"
            )
        self.weight = weight
        self.bias = bias
        self.stride = stride
        self.padding = padding

    def params(self):
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    @property
    def out_channels(self):
        return self.weight.value.shape[0]

    @property
    def in_channels(self):
        return self.weight.value.shape[1]

    def forward(self, x):
        self._x = x
        return conv2d(x, self.weight.value,
                      self.bias.value if self.bias is not None else None,
                      self.stride, self.padding)

    def backward(self, dout):
        need_db = self.bias is not None and self.bias.trainable
        dx, dw, db = conv2d_backward(
            self._x, self.weight.value, dout, self.stride, self.padding,
            need_dx=self._need_dx, need_dw=self.weight.trainable, need_db=need_db,
        )
        if self.weight.trainable:
            self.weight.grad = dw
        if need_db:
            self.bias.grad = db
        return dx


class _InputConv2dLayer(Conv2dLayer):
    """A conv layer that reads the model input: its backward returns None."""

    _need_dx = False


class _SpectralFirstLayer:
    """The one forward and backward of the CP and Tucker pipelines.

    The trainable spectral block (C_out, channels, R) runs as one bias-free
    pointwise conv to C_out*R channels, channel o*R+r from column r of
    filter o. Each subclass declares only its frozen spatial stages,
    :meth:`_stages`, as ``(weight, stride, padding)`` tuples; every stage
    is a grouped conv with one group per output channel.
    """

    kind: str

    def __init__(self, adapted: AdaptedLayer, stride=1, padding=0):
        if adapted.kind != self.kind:
            raise UnsupportedKindError(f"{type(self).__name__} needs a {self.kind} adapted layer")
        # Copy: training updates this block in place and must not write back
        # into the AdaptedLayer it was built from.
        self.spectral = Param("first.spectral", adapted.spectral.copy(), True)
        for name in self._spatial_blocks:
            setattr(self, name, Param(f"first.{name}", getattr(adapted, name), False))
        self.bias = Param("first.bias", adapted.bias, False) if adapted.bias is not None else None
        self.stride = stride
        self.padding = padding

    def params(self):
        out = [self.spectral] + [getattr(self, name) for name in self._spatial_blocks]
        return out + ([self.bias] if self.bias is not None else [])

    @property
    def out_channels(self):
        return self.spectral.value.shape[0]

    @property
    def in_channels(self):
        return self.spectral.value.shape[1]

    @property
    def _spatial_blocks(self):
        # The kind's frozen AdaptedLayer arrays, in parameter order.
        return _COMPONENTS[self.kind][1:]

    def _pointwise_weight(self):
        co, cn, rk = self.spectral.value.shape
        return self.spectral.value.transpose(0, 2, 1).reshape(co * rk, cn, 1, 1)

    def forward(self, x):
        x4, squeeze = _batched(x)
        if x4.shape[1] != self.in_channels:
            raise ShapeError(f"input has {x4.shape[1]} channels, layer expects {self.in_channels}")
        self._x4 = x4
        h = conv2d(x4, self._pointwise_weight())
        self._stage_inputs = []
        for w, stride, padding in self._stages():
            self._stage_inputs.append(h)
            h = conv2d(h, w, stride=stride, padding=padding, groups=w.shape[0])
        # Each filter's terms are adjacent channels: R for CP, 1 for Tucker.
        n, c, ho, wo = h.shape
        out = h.reshape(n, self.out_channels, c // self.out_channels, ho, wo).sum(axis=2)
        if self.bias is not None:
            out = out + self.bias.value[:, None, None]
        return out[0] if squeeze else out

    def backward(self, dout):
        d4, _ = _batched(dout)
        stages = self._stages()
        # The sum over each filter's terms hands every term the same gradient.
        d = np.repeat(d4, stages[-1][0].shape[0] // self.out_channels, axis=1)
        for (w, stride, padding), h in zip(reversed(stages), reversed(self._stage_inputs)):
            d, _, _ = conv2d_backward(h, w, d, stride=stride, padding=padding,
                                      groups=w.shape[0], need_dw=False)
        co, cn, rk = self.spectral.value.shape
        _, dw, _ = conv2d_backward(self._x4, self._pointwise_weight(), d,
                                   need_dx=False, need_dw=self.spectral.trainable)
        if self.spectral.trainable:
            self.spectral.grad = np.ascontiguousarray(dw.reshape(co, rk, cn).transpose(0, 2, 1))

    def dense_bank(self) -> np.ndarray:
        return decompress(self.to_adapted())

    def to_adapted(self) -> AdaptedLayer:
        spatial = {name: getattr(self, name).value for name in self._spatial_blocks}
        return AdaptedLayer(kind=self.kind, spectral=self.spectral.value.copy(),
                            bias=self.bias.value if self.bias is not None else None, **spatial)


class CpFirstLayer(_SpectralFirstLayer):
    """Separable realization of a CP adapted layer. Only the spectral block trains."""

    kind = CP
    # Own bindings: benchmarks/tracer.py wraps only methods in a class's __dict__.
    forward = _SpectralFirstLayer.forward
    backward = _SpectralFirstLayer.backward

    def _stages(self):
        # One depthwise filter per pointwise channel o*R+r: x taps (k1 x 1),
        # then y taps (1 x k2).
        co, k1, rk = self.x.value.shape
        k2 = self.y.value.shape[1]
        sh, sw = _pair(self.stride)
        ph, pw = _pair(self.padding)
        wv = self.x.value.transpose(0, 2, 1).reshape(co * rk, 1, k1, 1)
        wh = self.y.value.transpose(0, 2, 1).reshape(co * rk, 1, 1, k2)
        return [(wv, (sh, 1), (ph, 0)), (wh, (1, sw), (0, pw))]


class TuckerFirstLayer(_SpectralFirstLayer):
    """Pointwise + grouped-conv realization of a Tucker adapted layer."""

    kind = TUCKER
    # Own bindings: benchmarks/tracer.py wraps only methods in a class's __dict__.
    forward = _SpectralFirstLayer.forward
    backward = _SpectralFirstLayer.backward

    def _stages(self):
        # Group o maps filter o's R channels to one output through its core.
        return [(self.core.value, self.stride, self.padding)]


class ReduceFirstLayer:
    """Channel reduction to 3 followed by the frozen RGB convolution.

    pointwise (channels -> hidden) + bias, ReLU, pointwise (hidden -> 3) +
    bias, then the original dense RGB conv with its frozen weights and bias.
    Only the two pointwise stages train.
    """

    kind = "reduce"

    def __init__(self, w1, b1, w2, b2, rgb: FilterBank, stride=1, padding=0):
        self.pw1 = _InputConv2dLayer(Param("first.w1", w1, True), Param("first.b1", b1, True))
        self.act = ReLU()
        self.pw2 = Conv2dLayer(Param("first.w2", w2, True), Param("first.b2", b2, True))
        rgb_bias = Param("first.rgb_bias", rgb.bias, False) if rgb.bias is not None else None
        self.rgb = Conv2dLayer(Param("first.rgb_weight", rgb.weights, False), rgb_bias,
                               stride=stride, padding=padding)
        if (self.pw2.in_channels, self.rgb.in_channels) != (self.hidden, self.pw2.out_channels):
            raise ShapeError(
                f"reduce stages do not chain: w1 gives {self.hidden} channels, w2 takes "
                f"{self.pw2.in_channels} and gives {self.pw2.out_channels}, the RGB conv "
                f"takes {self.rgb.in_channels}"
            )

    def params(self):
        return self.pw1.params() + self.pw2.params() + self.rgb.params()

    @property
    def out_channels(self):
        return self.rgb.out_channels

    @property
    def in_channels(self):
        return self.pw1.in_channels

    @property
    def hidden(self):
        return self.pw1.out_channels

    @property
    def stride(self):
        return self.rgb.stride

    @property
    def padding(self):
        return self.rgb.padding

    def forward(self, x):
        x4, squeeze = _batched(x)
        if x4.shape[1] != self.in_channels:
            raise ShapeError(f"input has {x4.shape[1]} channels, layer expects {self.in_channels}")
        out = self.rgb.forward(self.pw2.forward(self.act.forward(self.pw1.forward(x4))))
        return out[0] if squeeze else out

    def backward(self, dout):
        d4, _ = _batched(dout)
        self.pw1.backward(self.act.backward(self.pw2.backward(self.rgb.backward(d4))))

    def dense_bank(self) -> np.ndarray:
        return self.rgb.weight.value


class ScratchFirstLayer(_InputConv2dLayer):
    """Full-width dense first layer trained from scratch; bias stays frozen."""

    kind = "scratch"

    def __init__(self, weight, bias=None, stride=1, padding=0):
        super().__init__(
            Param("first.weight", weight, True),
            Param("first.bias", bias, False) if bias is not None else None,
            stride=stride, padding=padding,
        )

    def dense_bank(self) -> np.ndarray:
        return self.weight.value


def reduce_hidden_width(in_channels: int, out_channels: int, rank: int) -> int:
    """Hidden width whose pointwise weight count matches the decomposed layer's."""
    return max(1, round(rank * out_channels * in_channels / (in_channels + 3)))


def _fan_in_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, shape)


def build_reduce(in_channels: int, rgb: FilterBank, hidden: int | None = None,
                 rank: int = 2, seed: int = 0, stride=1, padding=0) -> ReduceFirstLayer:
    """Reduce baseline: two trainable 1x1 convs with a ReLU between, then the frozen RGB conv.

    ``hidden`` defaults to the width that matches the decomposed layer's
    trainable weight count for the given rank.
    """
    if in_channels < 1:
        raise ShapeError("in_channels must be >= 1")
    m = hidden if hidden is not None else reduce_hidden_width(in_channels, rgb.out_channels, rank)
    if m < 1:
        raise ShapeError("hidden width must be >= 1")
    if rgb.in_channels != 3:
        raise ShapeError(f"Reduce projects to 3 channels but the RGB bank has {rgb.in_channels}")
    rng = np.random.default_rng(seed)
    w1 = _fan_in_uniform(rng, (m, in_channels, 1, 1), in_channels)
    w2 = _fan_in_uniform(rng, (3, m, 1, 1), m)
    return ReduceFirstLayer(w1, np.zeros(m), w2, np.zeros(3), rgb,
                            stride=stride, padding=padding)


def build_scratch(in_channels: int, rgb: FilterBank, seed: int = 0,
                  stride=1, padding=0) -> ScratchFirstLayer:
    """Scratch baseline: dense first layer of the original geometry at the new width."""
    if in_channels < 1:
        raise ShapeError("in_channels must be >= 1")
    c_out, _, k1, k2 = rgb.weights.shape
    rng = np.random.default_rng(seed)
    weight = _fan_in_uniform(rng, (c_out, in_channels, k1, k2), in_channels * k1 * k2)
    return ScratchFirstLayer(weight, rgb.bias, stride=stride, padding=padding)
