"""Hyperspectral cube ingestion, preprocessing pipelines and synthetic data.

Two preprocessing routes mirror the common protocols:

* remote sensing: slide a small window over a single labeled cube
  (``tile_remote_sensing``), keep tiles whose center pixel is labeled,
  bilinearly resize each tile, then split tile-wise.
* near-range: per-image classification (``preprocess_nearrange``): drop edge
  spectral channels, center-crop, resize, optionally zero-pad.

Channel-wise mean/std normalization is fit on training tiles only and
applied unchanged to test tiles; that is the only path that ever touches
test data. The synthetic generators make desk-scale verification possible:
``synth_filter_bank`` emits Gabor-flavored, exactly separable RGB filters
and ``synth_spectral_task`` emits a classification task whose class-mean
spectra are linearly separable by construction.

File formats: ``HSC1`` cubes (magic, u32 channels/height/width, float32
channel-major data, optional int32 label plane) and ``TLS1`` tile caches
(dims, split tag, optional stats, labels, float64 tiles).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._io import Writer, reading
from .errors import DataError, FormatError, ShapeError
from .filteradapt import FilterBank
from .tensor import as_tensor

__all__ = [
    "HyperCube",
    "TileSet",
    "Stats",
    "load_cube",
    "save_cube",
    "resize_bilinear",
    "tile_remote_sensing",
    "preprocess_nearrange",
    "normalize",
    "apply_stats",
    "split_tiles",
    "synth_filter_bank",
    "synth_spectral_task",
    "save_tiles",
    "load_tiles",
    "HSC_MAGIC",
    "TLS_MAGIC",
]

HSC_MAGIC = b"HSC1"
TLS_MAGIC = b"TLS1"
_SPLIT_TAGS = {"train": 0, "test": 1, "all": 2}
_TAG_SPLITS = {v: k for k, v in _SPLIT_TAGS.items()}


@dataclass
class HyperCube:
    """A (channels, H, W) image with an optional per-pixel label map (-1 = unlabeled)."""

    data: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.data = as_tensor(self.data)
        if self.data.ndim != 3:
            raise ShapeError(f"cube must be order 3, got order {self.data.ndim}")
        if self.labels is not None:
            self.labels = np.ascontiguousarray(self.labels, dtype=np.int32)
            if self.labels.shape != self.data.shape[1:]:
                raise ShapeError(
                    f"label map {self.labels.shape} does not match image {self.data.shape[1:]}"
                )
            if self.labels.min() < -1:
                raise DataError("labels must be >= -1")

    @property
    def channels(self):
        return self.data.shape[0]


@dataclass
class Stats:
    """Per-channel normalization parameters fit on training tiles."""

    mean: np.ndarray
    std: np.ndarray


@dataclass
class TileSet:
    """A stack of equally shaped tiles (N, C, h, w) with integer labels."""

    tiles: np.ndarray
    labels: np.ndarray
    split: str = "all"
    stats: Stats | None = None

    def __post_init__(self):
        self.tiles = np.ascontiguousarray(self.tiles, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.tiles.ndim != 4:
            raise ShapeError(f"tiles must be (N, C, h, w), got order {self.tiles.ndim}")
        if self.labels.shape != (self.tiles.shape[0],):
            raise ShapeError("one label per tile required")
        if self.split not in _SPLIT_TAGS:
            raise ShapeError(f"split must be one of {tuple(_SPLIT_TAGS)}")

    def __len__(self):
        return self.tiles.shape[0]

    @property
    def channels(self):
        return self.tiles.shape[1]


def save_cube(cube: HyperCube, path: str) -> None:
    w = Writer(HSC_MAGIC)
    w.u32(*cube.data.shape)
    w.array(cube.data, "<f4")
    if cube.labels is not None:
        w.array(cube.labels, "<i4")
    w.save(path)


def load_cube(path: str) -> HyperCube:
    """Read an HSC1 cube; the label plane is present iff bytes remain after the data."""
    with reading(path, HSC_MAGIC) as r:
        c, h, w = r.u32s(3, "cube extents")
        if c < 1 or h < 1 or w < 1:
            raise ShapeError(f"cube extents must all be >= 1, got {(c, h, w)}")
        data = r.array("<f4", (c, h, w), "cube data")
        labels = None
        if r.left:
            if r.left != 4 * h * w:
                raise FormatError(f"label plane should be {4 * h * w} bytes, found {r.left}")
            labels = r.array("<i4", (h, w), "label plane")
    return HyperCube(data.astype(np.float64), labels)


def _axis_weights(n_in: int, n_out: int):
    # Pixel-center mapping (align_corners=False): output center j samples
    # input coordinate (j + 0.5) * n_in / n_out - 0.5, clamped to the grid.
    pos = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    pos = np.clip(pos, 0.0, n_in - 1.0)
    lo = np.floor(pos).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, pos - lo


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize over the last two axes; constants are preserved exactly."""
    img = np.asarray(img, dtype=np.float64)
    if out_h < 1 or out_w < 1:
        raise ShapeError("output size must be >= 1")
    h, w = img.shape[-2], img.shape[-1]
    ly, hy, wy = _axis_weights(h, out_h)
    lx, hx, wx = _axis_weights(w, out_w)
    lo = img[..., ly, :]
    rows = lo + wy[:, None] * (img[..., hy, :] - lo)
    left = rows[..., lx]
    return left + wx * (rows[..., hx] - left)


def tile_remote_sensing(cube: HyperCube, tile: int = 11, stride: int = 3,
                        resize_to: int = 32) -> TileSet:
    """Slide a tile x tile window with the given stride over a labeled cube.

    A tile is kept iff the label of its center pixel is >= 0; every kept tile
    is resized to resize_to x resize_to. Per axis there are
    floor((size - tile) / stride) + 1 candidate positions.
    """
    if cube.labels is None:
        raise DataError("remote-sensing tiling needs a per-pixel label map")
    if tile < 1 or stride < 1:
        raise ShapeError(f"tile ({tile}) and stride ({stride}) must be >= 1")
    _, h, w = cube.data.shape
    if h < tile or w < tile:
        raise ShapeError(f"cube {h}x{w} smaller than tile {tile}")
    half = tile // 2
    tiles = []
    labels = []
    for i in range(0, h - tile + 1, stride):
        for j in range(0, w - tile + 1, stride):
            lab = int(cube.labels[i + half, j + half])
            if lab < 0:
                continue
            patch = cube.data[:, i:i + tile, j:j + tile]
            tiles.append(resize_bilinear(patch, resize_to, resize_to))
            labels.append(lab)
    if not tiles:
        return TileSet(np.zeros((0, cube.channels, resize_to, resize_to)),
                       np.zeros(0, dtype=np.int64))
    return TileSet(np.stack(tiles), np.asarray(labels, dtype=np.int64))


def preprocess_nearrange(cube: HyperCube, crop: int | None = None,
                         resize_to: int | None = None,
                         drop_channels: tuple[int, int] = (0, 0),
                         pad: int = 0) -> HyperCube:
    """Near-range pipeline: drop edge channels, center-crop, resize, zero-pad.

    Per-pixel labels do not survive resizing, so the result carries none;
    near-range samples are labeled per image.
    """
    lo, hi = drop_channels
    c, h, w = cube.data.shape
    if pad < 0:
        raise ShapeError(f"pad must be >= 0, got {pad}")
    if lo < 0 or hi < 0 or lo + hi >= c:
        raise ShapeError(f"cannot drop ({lo}, {hi}) of {c} channels")
    data = cube.data[lo:c - hi]
    if crop is not None:
        if crop > min(h, w) or crop < 1:
            raise ShapeError(f"crop {crop} does not fit image {h}x{w}")
        top = (h - crop) // 2
        left = (w - crop) // 2
        data = data[:, top:top + crop, left:left + crop]
    if resize_to is not None:
        data = resize_bilinear(data, resize_to, resize_to)
    if pad:
        data = np.pad(data, ((0, 0), (pad, pad), (pad, pad)))
    return HyperCube(np.ascontiguousarray(data))


def _fit_stats(tiles: np.ndarray) -> Stats:
    mean = tiles.mean(axis=(0, 2, 3))
    std = tiles.std(axis=(0, 2, 3))  # population formula
    # A NaN or infinite tile value makes its channel's mean or std non-finite.
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        raise DataError(f"channels {bad.tolist()} hold non-finite tile values")
    std = np.where(std < 1e-12, 1.0, std)
    return Stats(mean=mean, std=std)


def normalize(ts: TileSet) -> TileSet:
    """Fit channel-wise mean/std on these tiles and shift them; stats ride along."""
    if len(ts) == 0:
        raise DataError("cannot fit normalization on an empty tile set")
    stats = _fit_stats(ts.tiles)
    return apply_stats(ts, stats)


def apply_stats(ts: TileSet, stats: Stats) -> TileSet:
    """Shift tiles with previously fit stats (the only path that touches test tiles)."""
    tiles = ts.tiles - stats.mean[:, None, None]
    tiles /= stats.std[:, None, None]
    return replace(ts, tiles=tiles, stats=stats)


def split_tiles(ts: TileSet, train_fraction: float = 0.5, seed: int = 0):
    """Seeded tile-level shuffle into (train, test) sets.

    Note that overlapping remote-sensing tiles can share pixels across the
    split; splitting happens at tile level regardless.
    """
    if not 0 < train_fraction < 1:
        raise DataError("train_fraction must lie strictly between 0 and 1")
    n = len(ts)
    perm = np.random.default_rng(seed).permutation(n)
    cut = int(round(n * train_fraction))
    tr, te = perm[:cut], perm[cut:]
    train = TileSet(ts.tiles[tr], ts.labels[tr], split="train")
    test = TileSet(ts.tiles[te], ts.labels[te], split="test")
    return train, test


def synth_filter_bank(c_out: int, k: int, seed: int = 0, noise: float = 0.0) -> FilterBank:
    """Random bank of colored, elliptical first-layer-style filters.

    Each filter is an oriented Gaussian-windowed sinusoid truncated to its
    best separable (rank-one) spatial pattern, times a random RGB triple, so
    at noise 0 every filter is exactly a single spectral x vertical x
    horizontal outer product. ``noise`` adds that amplitude of white noise.
    """
    if c_out < 1 or k < 1:
        raise ShapeError("need c_out >= 1 and k >= 1")
    rng = np.random.default_rng(seed)
    d = np.arange(k) - (k - 1) / 2.0
    weights = np.empty((c_out, 3, k, k))
    for o in range(c_out):
        theta = rng.uniform(0.0, np.pi)
        freq = rng.uniform(0.5, 1.5) / k
        phase = rng.uniform(0.0, 2 * np.pi)
        sigma = rng.uniform(k / 5.0, k / 2.0)
        envelope = np.exp(-(d[:, None] ** 2 + d[None, :] ** 2) / (2 * sigma ** 2))
        carrier = np.cos(2 * np.pi * freq * (np.cos(theta) * d[:, None]
                                             + np.sin(theta) * d[None, :]) + phase)
        gabor = envelope * carrier
        u, s, vt = np.linalg.svd(gabor)
        pattern = s[0] * np.outer(u[:, 0], vt[0])
        rgb = rng.uniform(-1.0, 1.0, 3)
        while np.linalg.norm(rgb) < 0.3:  # keep the spectral part well away from zero
            rgb = rng.uniform(-1.0, 1.0, 3)
        weights[o] = rgb[:, None, None] * pattern
        if noise:
            weights[o] += noise * rng.standard_normal((3, k, k))
    bias = rng.normal(0.0, 0.1, c_out)
    return FilterBank(weights, bias)


def synth_spectral_task(channels: int, classes: int, samples: int, seed: int = 0,
                        tile: int = 16, noise: float = 0.1,
                        test_samples: int | None = None):
    """Desk-scale classification task with linearly separable class spectra.

    Each class owns a smooth spectral signature (a Gaussian bump over the
    channel axis; bumps for different classes sit far enough apart that the
    signatures' pairwise angles stay large). A sample is a soft spatial blob
    carrying its class signature plus white noise. Returns (train, test) tile
    sets of ``samples`` and ``test_samples`` (default: same) tiles.
    """
    if classes < 2:
        raise DataError("need at least 2 classes")
    if channels < classes:
        raise DataError(f"need at least one channel per class, got {channels} channels "
                        f"for {classes} classes")
    rng = np.random.default_rng(seed)
    centers = (np.arange(classes) + 0.5) * channels / classes
    width = channels / (3.0 * classes)
    grid = np.arange(channels)
    spectra = np.exp(-((grid[None, :] - centers[:, None]) ** 2) / (2 * width ** 2))
    spectra /= np.linalg.norm(spectra, axis=1, keepdims=True)

    def draw(count, split):
        labels = np.arange(count) % classes
        labels = labels[rng.permutation(count)]
        tiles = np.empty((count, channels, tile, tile))
        coords = np.arange(tile)
        for i, lab in enumerate(labels):
            cy, cx = rng.uniform(0.25 * tile, 0.75 * tile, 2)
            rho = rng.uniform(tile / 6.0, tile / 3.0)
            blob = np.exp(-(((coords[:, None] - cy) ** 2 + (coords[None, :] - cx) ** 2)
                            / (2 * rho ** 2)))
            amp = rng.uniform(0.8, 1.2)
            tiles[i] = amp * blob[None] * spectra[lab][:, None, None]
            if noise:
                tiles[i] += noise * rng.standard_normal((channels, tile, tile))
        return TileSet(tiles, labels, split=split)

    train = draw(samples, "train")
    test = draw(samples if test_samples is None else test_samples, "test")
    return train, test


def save_tiles(ts: TileSet, path: str) -> None:
    """Write a TLS1 tile cache.

    Layout: magic ``b"TLS1"``, u8 split tag (0 train, 1 test, 2 all), u8
    has_stats, u32 n/c/h/w, stats (mean then std, c float64 each) when
    present, n int32 labels, then n*c*h*w float64 tiles.
    """
    n, c, h, w = ts.tiles.shape
    wr = Writer(TLS_MAGIC)
    wr.u8(_SPLIT_TAGS[ts.split], 1 if ts.stats else 0)
    wr.u32(n, c, h, w)
    if ts.stats:
        wr.array(ts.stats.mean, "<f8")
        wr.array(ts.stats.std, "<f8")
    wr.array(ts.labels, "<i4")
    wr.array(ts.tiles, "<f8")
    wr.save(path)


def load_tiles(path: str) -> TileSet:
    with reading(path, TLS_MAGIC) as r:
        split_tag = r.u8("split tag")
        if split_tag not in _TAG_SPLITS:
            raise FormatError(f"unknown split tag {split_tag}")
        has_stats = r.u8("stats flag")
        if has_stats > 1:
            raise FormatError(f"stats flag must be 0 or 1, got {has_stats}")
        n, c, h, w = r.u32s(4, "tile extents")
        stats = None
        if has_stats:
            stats = Stats(r.array("<f8", (c,), "stats mean"), r.array("<f8", (c,), "stats std"))
        labels = r.array("<i4", (n,), "labels")
        tiles = r.array("<f8", (n, c, h, w), "tiles")
    return TileSet(tiles, labels.astype(np.int64), split=_TAG_SPLITS[split_tag], stats=stats)
