"""2-D convolution kernels (forward and backward) and adaptive average pooling.

Convolution means cross-correlation throughout: no kernel flip. This matters
because decomposition components are orientation-sensitive. Weights are laid
out (out_channels, in_channels // groups, kh, kw); activations are
(N, C, H, W), with single-image (C, H, W) inputs accepted and returned
everywhere. All float64, all deterministic.

Each convolution is one ``matmul`` against a patch matrix (im2col; Chetlur
et al. 2014). ``_cols`` copies the sliding-window view of the input once
into a C-ordered (G, C/G*kh*kw, N*Ho*Wo) matrix, and the weights, reshaped
to (G, O/G, C/G*kh*kw), go on the left. ``dw`` multiplies the same patch
matrix by the output gradient laid out (G, N*Ho*Wo, O/G), and ``dx`` adds
one (G, C/G, O/G) x (G, O/G, N*Ho*Wo) product per kernel tap into a padded
buffer. These are the operands that numpy 2.4's Einstein summation, which
these kernels used before, handed to BLAS for the same contractions. So for
batches of two or more, at least two input channels and outputs larger than
1x1 the results keep its bits, without the extra copies it made for size-1
axes (1x1 kernels, depthwise, one output per group). At padding 0 the window
view reads the input itself, with no padded copy.
"""

from __future__ import annotations

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


def _windows(x4, w, stride, padding):
    """(N, C, Ho, Wo, kh, kw) view of the padded input's receptive fields."""
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    if ph or pw:
        x4 = np.pad(x4, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    return sliding_window_view(x4, w.shape[2:], axis=(2, 3))[:, :, ::sh, ::sw]


def _cols(x4, w, stride, padding, groups):
    """The patch matrix (G, C/G*kh*kw, N*Ho*Wo), copied once into C order."""
    win = _windows(x4, w, stride, padding)
    n, c, ho, wo, kh, kw = win.shape
    win = win.reshape(n, groups, c // groups, ho, wo, kh, kw)
    return np.ascontiguousarray(win.transpose(1, 2, 5, 6, 0, 3, 4)).reshape(
        groups, -1, n * ho * wo)


def conv2d(x, w, bias=None, stride=1, padding=0, groups=1) -> np.ndarray:
    """Grouped 2-D cross-correlation."""
    x4, squeeze = _batched(x)
    w = np.asarray(w, dtype=np.float64)
    ho, wo = _output_size(x4, w, stride, padding, groups)
    n = x4.shape[0]
    c_out = w.shape[0]
    out = np.matmul(w.reshape(groups, c_out // groups, -1),
                    _cols(x4, w, stride, padding, groups))
    out = out.reshape(c_out, n, ho, wo).transpose(1, 0, 2, 3)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64)[:, None, None]
    return out[0] if squeeze else out


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
    if need_dw:
        dout_t = np.ascontiguousarray(d5.transpose(0, 2, 3, 4, 1)).reshape(groups, -1, o_g)
        dw = np.matmul(_cols(x4, w, stride, padding, groups), dout_t)
        dw = dw.reshape(groups, c_in_g, kh, kw, o_g).transpose(0, 4, 1, 2, 3).reshape(w.shape)

    db = d4.sum(axis=(0, 2, 3)) if need_db else None

    dx = None
    if need_dx:
        dout_t = np.ascontiguousarray(d5).reshape(groups, o_g, -1)
        # (kh, kw, G, C/G, O/G): each tap's transposed weights, contiguous.
        w_t = np.ascontiguousarray(
            w.reshape(groups, o_g, c_in_g, kh, kw).transpose(3, 4, 0, 2, 1))
        dxp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw))
        for u in range(kh):
            for v in range(kw):
                contrib = np.matmul(w_t[u, v], dout_t).reshape(c, n, ho, wo)
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
