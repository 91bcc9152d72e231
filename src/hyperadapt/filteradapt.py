"""Swap 3-channel spectral components for trainable wide-channel ones.

Given per-filter decompositions of a pretrained RGB filter bank, ``adapt``
produces an :class:`AdaptedLayer`: the spatial parts (separable taps for CP,
cores for Tucker) are copied verbatim, marked read-only and never updated by
training; the spectral parts are re-initialized at the new channel count and
are the only first-layer parameters that train. ``decompress`` turns the
layer back into a dense (C_out, new_channels, k1, k2) bank.

Spectral initialization policies:

* ``interp`` (default) - piecewise-linear interpolation of the original
  spectral values across the new channel positions (endpoints aligned),
  scaled by old/new channel count so the response to a channel-constant
  input is approximately preserved. At the original channel count this is
  exactly the identity.
* ``replicate`` - tile the original values across the new channels, same
  scaling.
* ``random`` - zero-mean normal with sigma = |original column| / sqrt(new
  channels), per column.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._io import Writer, reading
from .decomp import (
    _COMPONENTS, _KIND_TAGS, _TAG_KINDS, CP, TUCKER, _component_shapes, _uniform_kind,
)
from .errors import FormatError, ShapeError, UnsupportedKindError
from .linalg import lstsq_gram
from .tensor import as_tensor

__all__ = [
    "FilterBank",
    "AdaptedLayer",
    "INIT_POLICIES",
    "adapt",
    "decompress",
    "span_residual",
    "save_adapted",
    "load_adapted",
    "ADP_MAGIC",
]

ADP_MAGIC = b"ADP1"
INIT_POLICIES = ("interp", "replicate", "random")


@dataclass
class FilterBank:
    """Pretrained first-layer weights (C_out, C_in, k1, k2) with optional bias."""

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        self.weights = as_tensor(self.weights)
        if self.weights.ndim != 4:
            raise ShapeError(f"filter bank must be order 4, got order {self.weights.ndim}")
        if self.bias is not None:
            self.bias = np.ascontiguousarray(self.bias, dtype=np.float64)
            if self.bias.shape != (self.weights.shape[0],):
                raise ShapeError(
                    f"bias length {self.bias.shape} does not match {self.weights.shape[0]} filters"
                )

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]


@dataclass
class AdaptedLayer:
    """Frozen spatial parts plus trainable wide-channel spectral parts.

    CP layers carry per-filter tap matrices ``x`` (C_out, k1, R) and ``y``
    (C_out, k2, R); Tucker layers carry per-filter cores (C_out, R, k1, k2).
    For both kinds ``spectral`` is (C_out, new_channels, R) and ``basis``,
    each filter's R frozen spatial patterns, is (C_out, R, k1, k2). The
    spatial arrays and bias are stored read-only; training may write only
    ``spectral``.
    """

    kind: str
    spectral: np.ndarray
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    core: np.ndarray | None = None
    bias: np.ndarray | None = None
    init: str = "interp"
    seed: int = 0

    def __post_init__(self):
        shape = np.shape(self.spectral)
        if len(shape) != 3:
            raise ShapeError(f"spectral must be (C_out, channels, R), got shape {shape}")
        if self.kind not in _KIND_TAGS:
            raise UnsupportedKindError(
                f"unknown layer kind {self.kind!r}; expected one of {tuple(_KIND_TAGS)}"
            )
        co, _, rk = shape
        if self.kind == CP:
            ok = all(np.ndim(t) == 3 and t.shape[::2] == (co, rk) for t in (self.x, self.y))
            want = "x (C_out, k1, R) and y (C_out, k2, R)"
        else:
            ok = np.ndim(self.core) == 4 and self.core.shape[:2] == (co, rk)
            want = "core (C_out, R, k1, k2)"
        if not ok:
            raise ShapeError(f"{self.kind} layer with spectral {shape} needs {want}")
        if self.bias is not None and np.shape(self.bias) != (co,):
            raise ShapeError(f"bias shape {np.shape(self.bias)} does not match {co} filters")

    @property
    def out_channels(self) -> int:
        return self.spectral.shape[0]

    @property
    def new_channels(self) -> int:
        return self.spectral.shape[1]

    @property
    def rank(self) -> int:
        return self.spectral.shape[2]

    @property
    def rank_warning(self) -> bool:
        """A Tucker layer narrower than its rank cannot keep orthonormal spectral columns."""
        return self.kind == TUCKER and self.new_channels < self.rank

    @property
    def kernel(self) -> tuple[int, int]:
        if self.kind == CP:
            return self.x.shape[1], self.y.shape[1]
        return self.core.shape[2], self.core.shape[3]

    @property
    def basis(self) -> np.ndarray:
        """(C_out, R, k1, k2): pattern r of filter o is x_r y_r^T (CP) or core slice r (Tucker)."""
        if self.kind == CP:
            return np.einsum("oir,ojr->orij", self.x, self.y)
        return self.core


def _channel_positions(n: int) -> np.ndarray:
    # Endpoint-aligned positions on [0, 1]; a single channel sits midway.
    if n == 1:
        return np.array([0.5])
    return np.linspace(0.0, 1.0, n)


def _expand_column(col: np.ndarray, new_channels: int, init: str,
                   rng: np.random.Generator) -> np.ndarray:
    old = col.shape[0]
    scale = old / new_channels
    if init == "interp":
        return np.interp(_channel_positions(new_channels), _channel_positions(old), col) * scale
    if init == "replicate":
        reps = -(-new_channels // old)
        return np.tile(col, reps)[:new_channels] * scale
    if init == "random":
        sigma = float(np.linalg.norm(col)) / np.sqrt(new_channels)
        return rng.normal(0.0, sigma, new_channels) if sigma > 0 else np.zeros(new_channels)
    raise ShapeError(f"unknown init policy {init!r}; expected one of {INIT_POLICIES}")


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    out.flags.writeable = False
    return out


def adapt(decomps, new_channels: int, init: str = "interp", seed: int = 0,
          bias: np.ndarray | None = None) -> AdaptedLayer:
    """Build an adapted layer from per-filter decompositions.

    Spatial parts are copied verbatim and frozen; spectral parts of width
    ``new_channels`` are initialized per policy. With ``interp`` and the
    original channel count, the layer decompresses to exactly the source
    reconstruction. A Tucker adaptation with new_channels < rank is allowed
    but flagged (``rank_warning``): the spectral factor can no longer have
    orthonormal columns.
    """
    if new_channels < 1:
        raise ShapeError("new channel count must be >= 1")
    if init not in INIT_POLICIES:
        raise ShapeError(f"unknown init policy {init!r}; expected one of {INIT_POLICIES}")
    kind = _uniform_kind(decomps)
    source_channels = decomps[0].spectral.shape[0]
    if source_channels != 3:
        raise ShapeError(
            f"adaptation expects decompositions of a 3-channel (RGB) bank, "
            f"got {source_channels} channels"
        )

    rng = np.random.default_rng(seed)
    rank = decomps[0].rank
    spectral = np.empty((len(decomps), new_channels, rank))
    for o, d in enumerate(decomps):
        for r in range(rank):
            spectral[o, :, r] = _expand_column(d.spectral[:, r], new_channels, init, rng)

    bias_arr = None
    if bias is not None:
        bias_arr = _frozen(np.asarray(bias, dtype=np.float64))
        if bias_arr.shape != (len(decomps),):
            raise ShapeError(f"bias length {bias_arr.shape} does not match {len(decomps)} filters")

    spatial = {name: _frozen(np.stack([getattr(d, name) for d in decomps]))
               for name in _COMPONENTS[kind][1:]}
    layer = AdaptedLayer(kind=kind, spectral=spectral, bias=bias_arr, init=init, seed=seed,
                         **spatial)
    if layer.rank_warning:
        warnings.warn(
            f"adapting a rank-{rank} Tucker layer to {new_channels} channels: "
            "the spectral factor cannot keep orthonormal columns",
            stacklevel=2,
        )
    return layer


def decompress(layer: AdaptedLayer) -> np.ndarray:
    """Dense (C_out, new_channels, k1, k2) bank with the wide spectral parts in place."""
    return np.einsum("ocr,orij->ocij", layer.spectral, layer.basis)


def _span_residual(slices: np.ndarray, basis: np.ndarray) -> float:
    # Worst over channels of the relative residual after projecting each
    # spatial slice onto the span of the basis patterns; 0/0 counts as 0.
    r = basis.shape[0]
    b = basis.reshape(r, -1).T
    gram = b.T @ b
    coef = lstsq_gram(gram, b.T @ slices.reshape(slices.shape[0], -1).T)
    resid = slices.reshape(slices.shape[0], -1).T - b @ coef
    num = np.linalg.norm(resid, axis=0)
    den = np.linalg.norm(slices.reshape(slices.shape[0], -1), axis=1)
    out = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    return float(out.max())


def span_residual(layer: AdaptedLayer, o: int) -> float:
    """How far filter ``o``'s channel slices stray from its frozen spatial patterns.

    Every channel slice of the decompressed filter must be a linear
    combination of the filter's R ``basis`` patterns (x_r y_r^T for CP, core
    slices for Tucker); the returned value is the worst relative projection
    residual over channels (0 for a healthy layer, regardless of how the
    spectral parts have been trained).
    """
    basis = layer.basis[o]
    return _span_residual(np.einsum("cr,rij->cij", layer.spectral[o], basis), basis)


_INIT_TAGS = {name: i for i, name in enumerate(INIT_POLICIES)}


def save_adapted(path: str, layer: AdaptedLayer) -> None:
    """Write an ADP1 file.

    Layout: magic ``b"ADP1"``, u32 kind (0=CP, 1=Tucker), u32 C_out,
    new_channels, k1, k2, R, u8 has_bias, then the frozen spatial blob
    (CP: x then y per filter; Tucker: core per filter), the trainable
    spectral blob (per filter, new_channels x R), the bias if present, and
    finally u8 init tag plus u64 seed. All floats little-endian float64.
    """
    if layer.init not in _INIT_TAGS:
        raise ShapeError(f"unknown init policy {layer.init!r}; expected one of {INIT_POLICIES}")
    k1, k2 = layer.kernel
    w = Writer(ADP_MAGIC)
    w.u32(_KIND_TAGS[layer.kind], layer.out_channels, layer.new_channels, k1, k2, layer.rank)
    w.u8(1 if layer.bias is not None else 0)
    for name in _COMPONENTS[layer.kind][1:]:
        w.array(getattr(layer, name), "<f8")
    w.array(layer.spectral, "<f8")
    if layer.bias is not None:
        w.array(layer.bias, "<f8")
    w.u8(_INIT_TAGS[layer.init])
    w.u64(layer.seed & 0xFFFFFFFFFFFFFFFF)
    w.save(path)


def load_adapted(path: str) -> AdaptedLayer:
    """Read an ADP1 file back into an :class:`AdaptedLayer`."""
    with reading(path, ADP_MAGIC) as r:
        tag, c_out, new_ch, k1, k2, rank = r.u32s(6, "adapted-layer header")
        if tag not in _TAG_KINDS:
            raise FormatError(f"unknown kind tag {tag}")
        kind = _TAG_KINDS[tag]
        has_bias = r.u8("bias flag")
        if has_bias > 1:
            raise FormatError(f"bias flag must be 0 or 1, got {has_bias}")
        spatial = {name: _frozen(r.array("<f8", (c_out,) + shape, f"{name} blocks"))
                   for name, shape in zip(_COMPONENTS[kind][1:],
                                          _component_shapes(kind, new_ch, k1, k2, rank)[1:])}
        spectral = r.array("<f8", (c_out, new_ch, rank), "spectral")
        bias = _frozen(r.array("<f8", (c_out,), "bias")) if has_bias else None
        init_tag = r.u8("init tag")
        seed = r.u64("seed")
    if init_tag >= len(INIT_POLICIES):
        raise FormatError(f"unknown init tag {init_tag}")
    return AdaptedLayer(kind=kind, spectral=spectral, bias=bias,
                        init=INIT_POLICIES[init_tag], seed=seed, **spatial)
