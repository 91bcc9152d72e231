"""2-D convolution kernels (forward and backward) and adaptive average pooling.

Convolution means cross-correlation throughout: no kernel flip. This matters
because decomposition components are orientation-sensitive. Weights are laid
out (out_channels, in_channels // groups, kh, kw); activations are
(N, C, H, W), with single-image (C, H, W) inputs accepted and returned
everywhere. All float64, all deterministic.

Each convolution is a ``matmul`` in one of two layouts, chosen by shape
alone (no option):

* Tap-stacked (kn2row; Vasudevan, Anderson & Gregg 2017, "Parallel Multi
  Channel Convolution using General Matrix Multiplication"; Anderson et al.
  2017, arXiv:1709.03395) for dense calls with fewer outputs than input
  channels: one group, stride 1, more than one tap and C_out < C_in, such as
  the Scratch first layer (64 or 103 bands to 8 filters, 5x5). The weights,
  laid out (kh*kw*O, C), multiply each image's padded input as (C, Hp*Wp),
  giving every tap's output plane; kh*kw shifted-slice adds sum them into
  the (N, O, Ho, Wo) output. ``dw`` places the output gradient in kh*kw
  shifted zero frames of the padded input's size, (kh*kw*O, Hp*Wp) per
  image, multiplies them by the input's transpose and sums over images.
  Neither builds a patch matrix. ``dx`` and ``db`` are those of the other
  layout.
* The patch matrix (im2col; Chetlur et al. 2014) for every other call.
  ``_cols`` copies a sliding-window view of the input into a C-ordered
  (G, C/G*kh*kw, N*Ho*Wo) matrix, and the weights, reshaped to
  (G, O/G, C/G*kh*kw), go on the left. ``dw`` multiplies the same patch
  matrix by the output gradient laid out (G, N*Ho*Wo, O/G), and ``dx`` adds
  one (G, C/G, O/G) x (G, O/G, N*Ho*Wo) product per kernel tap into a
  padded buffer; with one output per group that product is a broadcast
  multiply.

Where bits hold. The tap-stacked path sums in another order than the
einsum kernels this module used before, so it matches the direct loop
definition of the convolution to round-off, not bit for bit: on 128
standard-normal tiles of 103 bands it differs from the patch matrix by
5e-13 in outputs and gradients of up to 570. The patch-matrix operands are the ones numpy 2.4's
Einstein summation handed to BLAS for the same contractions. So for batches
of two or more, at least two input channels and outputs larger than 1x1
they keep its bits, without the extra copies it made for size-1 axes (1x1
kernels, depthwise, one output per group). At padding 0 neither layout
copies the input to pad it.

Both layouts work in slices of about ``_SLICE_BYTES`` of patch matrix. The
tap-stacked path takes as many whole images per slice as that patch matrix
would hold, and reuses one buffer of planes (or frames) across slices;
its ``dw`` adds the slices' products in order, so its bits follow the
slicing, which follows only the call's shape. A dense patch-matrix call
builds its matrix slice by slice, each consumed by its ``matmul`` while it
is still in cache: the forward slices whole images (the GEMM's columns),
``dw`` slices input channels (its rows). No slice splits the contraction,
and each slice's ``matmul`` writes its block of the output in place, so
every output element is the same BLAS dot product as in the unsliced call.
Three things would still change bits, and the slicing avoids each. A GEMM
one row or column wide, like any call with one output per group, goes down
matmul's gemv path; OpenBLAS's kernels round a matrix edge that is not a
whole tile differently; and small GEMMs get OpenBLAS's small-matrix
kernels. So grouped calls stay whole (in this library they all have one
output per group), every slice edge but the last falls on a multiple of 16
forward columns or 2 ``dw`` rows (the tile of OpenBLAS's AVX-512 kernels),
and balanced slices hold about half the budget or more each. This was
checked at 1, 2 and 4 OpenBLAS threads on its AVX-512 kernels, and at 1
thread on its AVX2 kernels (Haswell, AMD Zen 2 and 3). With more threads
the AVX2 kernels round a row of ``dw`` differently where a thread's share
of the rows leaves one row over, so there even an unsliced ``matmul``'s
bits depend on the thread count, and a sliced ``dw`` can differ from the
unsliced one in the last bit. No slice alignment avoids that: the shares
follow the whole GEMM's size.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError

__all__ = [
    "conv2d",
    "conv2d_backward",
    "conv_output_size",
    "adaptive_avg_pool",
    "adaptive_avg_pool_backward",
]


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _batched(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        return x[None], True
    if x.ndim == 4:
        return x, False
    raise ShapeError(f"expected (C, H, W) or (N, C, H, W) input, got order {x.ndim}")


def _output_size(x4, w, stride, padding, groups) -> tuple[int, int]:
    """Validate a conv call and return its output (Ho, Wo)."""
    if w.ndim != 4:
        raise ShapeError(f"weights must be order 4, got order {w.ndim}")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    if min(sh, sw) < 1 or min(ph, pw) < 0:
        raise ShapeError(f"need stride >= 1 and padding >= 0, got stride {sh}x{sw}, "
                         f"padding {ph}x{pw}")
    _, c, h, wd = x4.shape
    c_out, c_in_g, kh, kw = w.shape
    if c != c_in_g * groups:
        raise ShapeError(
            f"input has {c} channels, weights expect {c_in_g * groups} (groups={groups})"
        )
    if c_out % groups:
        raise ShapeError(f"out_channels={c_out} not divisible by groups={groups}")
    ho = conv_output_size(h, kh, sh, ph)
    wo = conv_output_size(wd, kw, sw, pw)
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"empty output {ho}x{wo}: input {h}x{wd}, kernel {kh}x{kw}, "
            f"stride {sh}x{sw}, padding {ph}x{pw}"
        )
    return ho, wo


# Bytes of patch matrix per slice. A slice is copied and consumed by its
# matmul while it is still in cache, where a whole matrix (236-605 MB for a
# 128-tile dense call) streams through memory twice. On a 2-core Xeon (2 MiB
# L2 per core), the patch-matrix forward and dw of 128 tiles of 64 or 103
# bands, 8 filters 5x5, took the same time for slices of 2 to 16 MiB, half
# that of whole matrices; at 32 MiB the 103-band dw lost most of the gain, at
# 64 MiB both did. The largest value on the flat part keeps the GEMMs fewest
# and largest. The same calls now run tap-stacked, with slices of 8.5 (64
# bands) or 5.6 (103 bands) images at this budget: forward 26 and 33 ms, dw
# 26 and 37 ms (numpy 2.4.6, OpenBLAS 0.3.31), against 50 and 85 ms, 65 and
# 91 ms on the patch matrix. They are as fast from 8 to 64 MiB (4 to 32
# images), and lose up to 30% at 2 MiB (one image per slice).
_SLICE_BYTES = 16 << 20


def _slices(units, width, align, nbytes, sliceable):
    """Balanced (start, stop) ranges over ``units``, each unit ``width`` GEMM rows or columns.

    A sliceable patch matrix of ``nbytes`` is split into ceil(nbytes /
    _SLICE_BYTES) slices. Every edge but the last falls on a multiple of
    ``align`` rows or columns, so no slice is narrower than that.
    """
    step = align // math.gcd(width, align)
    blocks = units // step
    count = -(-nbytes // _SLICE_BYTES) if sliceable else 1
    count = max(1, min(count, blocks))
    edges = [step * (blocks * i // count) for i in range(count)] + [units]
    return zip(edges[:-1], edges[1:])


def _padded(x4, padding):
    """The input zero-padded, or the input itself at padding 0."""
    ph, pw = _pair(padding)
    return np.pad(x4, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else x4


def _windows(x4, w, stride, padding, groups):
    """(N, G, C/G, Ho, Wo, kh, kw) view of the padded input's receptive fields."""
    sh, sw = _pair(stride)
    win = sliding_window_view(_padded(x4, padding), w.shape[2:], axis=(2, 3))[:, :, ::sh, ::sw]
    n, c = win.shape[:2]
    return win.reshape(n, groups, c // groups, *win.shape[2:])


def _cols(win):
    """The patch matrix (G, C/G*kh*kw, N*Ho*Wo) of a window view, copied once into C order."""
    n, groups, _, ho, wo, _, _ = win.shape
    return np.ascontiguousarray(win.transpose(1, 2, 5, 6, 0, 3, 4)).reshape(
        groups, -1, n * ho * wo)


def _tap_stacked(w, stride, groups) -> bool:
    """Whether a call takes the tap-stacked path: dense, stride 1, a kernel
    wider than one tap and fewer outputs than input channels."""
    c_out, c_in, kh, kw = w.shape
    return groups == 1 and _pair(stride) == (1, 1) and kh * kw > 1 and c_out < c_in


def _tap_slices(x4, w, ho, wo):
    """Image ranges for the tap-stacked path: as many images as the patch matrix
    the call replaces would hold in one slice."""
    n, c = x4.shape[:2]
    _, _, kh, kw = w.shape
    return list(_slices(n, 1, 1, 8 * n * c * kh * kw * ho * wo, True))


def _tap_stacked_forward(x4, w, padding, ho, wo):
    """All taps' output planes from one GEMM per image, then kh*kw shifted adds."""
    xp = _padded(x4, padding)
    n, c, hp, wp = xp.shape
    c_out, _, kh, kw = w.shape
    # (kh*kw*O, C): every tap's weights, stacked.
    w_t = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(-1, c)
    out = np.empty((n, c_out, ho, wo))
    slices = _tap_slices(x4, w, ho, wo)
    buf = np.empty((max(b - a for a, b in slices), kh * kw * c_out, hp * wp))
    for a, b in slices:
        np.matmul(w_t, xp[a:b].reshape(b - a, c, hp * wp), out=buf[:b - a])
        planes = buf[:b - a].reshape(b - a, kh, kw, c_out, hp, wp)
        out[a:b] = planes[:, 0, 0, :, :ho, :wo]
        for u in range(kh):
            for v in range(kw):
                if u or v:
                    out[a:b] += planes[:, u, v, :, u:u + ho, v:v + wo]
    return out


def _tap_stacked_dw(x4, w, d4, padding):
    """dw from output-gradient frames, one per tap, against the padded input."""
    xp = _padded(x4, padding)
    n, c, hp, wp = xp.shape
    c_out, _, kh, kw = w.shape
    ho, wo = d4.shape[2:]
    slices = _tap_slices(x4, w, ho, wo)
    # Tap (u, v)'s frame is dout shifted by (u, v) into a zero plane of the
    # padded input's size. Every slice writes the same places of its images'
    # frames, so the zeros are laid once.
    frames = np.zeros((max(b - a for a, b in slices), kh * kw * c_out, hp * wp))
    taps = frames.reshape(-1, kh, kw, c_out, hp, wp)
    dw = np.zeros((kh * kw * c_out, c))
    for a, b in slices:
        for u in range(kh):
            for v in range(kw):
                taps[:b - a, u, v, :, u:u + ho, v:v + wo] = d4[a:b]
        x_t = xp[a:b].reshape(b - a, c, hp * wp).transpose(0, 2, 1)
        dw += np.matmul(frames[:b - a], x_t).sum(axis=0)
    return np.ascontiguousarray(dw.reshape(kh, kw, c_out, c).transpose(2, 3, 0, 1))


def conv2d(x, w, bias=None, stride=1, padding=0, groups=1) -> np.ndarray:
    """Grouped 2-D cross-correlation."""
    x4, squeeze = _batched(x)
    w = np.asarray(w, dtype=np.float64)
    ho, wo = _output_size(x4, w, stride, padding, groups)
    if _tap_stacked(w, stride, groups):
        out = _tap_stacked_forward(x4, w, padding, ho, wo)
    else:
        out = _patch_forward(x4, w, stride, padding, groups, ho, wo)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64)[:, None, None]
    return out[0] if squeeze else out


def _patch_forward(x4, w, stride, padding, groups, ho, wo):
    """The forward as weights times the patch matrix, built slice by slice."""
    n = x4.shape[0]
    c_out = w.shape[0]
    o_g = c_out // groups
    w_g = w.reshape(groups, o_g, -1)
    win = _windows(x4, w, stride, padding, groups)
    out = np.empty((groups, o_g, n * ho * wo))
    for a, b in _slices(n, ho * wo, 16, win.nbytes, groups == 1 and c_out > 1):
        np.matmul(w_g, _cols(win[a:b]), out=out[:, :, a * ho * wo:b * ho * wo])
    return out.reshape(c_out, n, ho, wo).transpose(1, 0, 2, 3)


def conv2d_backward(x, w, dout, stride=1, padding=0, groups=1,
                    need_dx=True, need_dw=True, need_db=False):
    """Gradients of :func:`conv2d`. Returns (dx, dw, db); None where not requested."""
    x4, squeeze = _batched(x)
    d4, _ = _batched(dout)
    w = np.asarray(w, dtype=np.float64)
    ho, wo = _output_size(x4, w, stride, padding, groups)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c, h, wd = x4.shape
    c_out, c_in_g, kh, kw = w.shape
    if d4.shape != (n, c_out, ho, wo):
        raise ShapeError(
            f"output gradient has shape {d4.shape}, the convolution gives {(n, c_out, ho, wo)}"
        )
    o_g = c_out // groups
    # (G, O/G, N, Ho, Wo) view of the output gradient.
    d5 = d4.reshape(n, groups, o_g, ho, wo).transpose(1, 2, 0, 3, 4)

    dw = None
    if need_dw and _tap_stacked(w, stride, groups):
        dw = _tap_stacked_dw(x4, w, d4, padding)
    elif need_dw:
        dout_t = np.ascontiguousarray(d5.transpose(0, 2, 3, 4, 1)).reshape(groups, -1, o_g)
        win = _windows(x4, w, stride, padding, groups)
        dw = np.empty((groups, c_in_g * kh * kw, o_g))
        for a, b in _slices(c_in_g, kh * kw, 2, win.nbytes, groups == 1 and c_out > 1):
            np.matmul(_cols(win[:, :, a:b]), dout_t, out=dw[:, a * kh * kw:b * kh * kw])
        dw = dw.reshape(groups, c_in_g, kh, kw, o_g).transpose(0, 4, 1, 2, 3).reshape(w.shape)

    db = d4.sum(axis=(0, 2, 3)) if need_db else None

    dx = None
    if need_dx:
        dout_t = np.ascontiguousarray(d5).reshape(groups, o_g, -1)
        # (kh, kw, G, C/G, O/G): each tap's transposed weights, contiguous.
        w_t = np.ascontiguousarray(
            w.reshape(groups, o_g, c_in_g, kh, kw).transpose(3, 4, 0, 2, 1))
        # With one output per group each tap's contraction has one term, a
        # broadcast product; matmul would loop over it element by element.
        product = np.multiply if o_g == 1 else np.matmul
        dxp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw))
        for u in range(kh):
            for v in range(kw):
                contrib = product(w_t[u, v], dout_t).reshape(c, n, ho, wo)
                dxp[:, :, u:u + sh * ho:sh, v:v + sw * wo:sw] += contrib.transpose(1, 0, 2, 3)
        dx = dxp[:, :, ph:ph + h, pw:pw + wd]
        if squeeze:
            dx = dx[0]
    return dx, dw, db


def _pool_bounds(size: int, target: int):
    # Window i covers [floor(i*size/target), ceil((i+1)*size/target)); windows
    # tile the axis and may overlap when target does not divide size.
    return [((i * size) // target, -((-(i + 1) * size) // target)) for i in range(target)]


def adaptive_avg_pool(x, target) -> np.ndarray:
    """Average-pool to a fixed (h, w) output grid."""
    x4, squeeze = _batched(x)
    th, tw = _pair(target)
    n, c, h, w = x4.shape
    if th > h or tw > w:
        raise ShapeError(f"pool target {th}x{tw} larger than input {h}x{w}")
    if th < 1 or tw < 1:
        raise ShapeError("pool target must be >= 1")
    rows = _pool_bounds(h, th)
    cols = _pool_bounds(w, tw)
    out = np.empty((n, c, th, tw))
    for i, (r0, r1) in enumerate(rows):
        for j, (c0, c1) in enumerate(cols):
            out[:, :, i, j] = x4[:, :, r0:r1, c0:c1].mean(axis=(2, 3))
    return out[0] if squeeze else out


def adaptive_avg_pool_backward(dout, in_shape, target) -> np.ndarray:
    """Gradient of adaptive_avg_pool for an input of ``in_shape`` (N, C, H, W)."""
    d4, squeeze = _batched(dout)
    th, tw = _pair(target)
    n, c, h, w = in_shape if len(in_shape) == 4 else (d4.shape[0],) + tuple(in_shape)
    rows = _pool_bounds(h, th)
    cols = _pool_bounds(w, tw)
    dx = np.zeros((n, c, h, w))
    for i, (r0, r1) in enumerate(rows):
        for j, (c0, c1) in enumerate(cols):
            area = (r1 - r0) * (c1 - c0)
            dx[:, :, r0:r1, c0:c1] += d4[:, :, i:i + 1, j:j + 1] / area
    return dx[0] if squeeze else dx
