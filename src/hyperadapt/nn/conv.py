"""2-D convolution kernels (forward and backward) and adaptive average pooling.

Convolution means cross-correlation throughout: no kernel flip. This matters
because decomposition components are orientation-sensitive. Weights are laid
out (out_channels, in_channels // groups, kh, kw); activations are
(N, C, H, W), with single-image (C, H, W) inputs accepted and returned
everywhere. All float64, all deterministic.

Each convolution is a ``matmul`` in one of three layouts, chosen by shape
alone (no option):

* Lowered along one axis (MEC; Cho & Brand 2017, "MEC: Memory-efficient
  Convolution for Deep Neural Network", ICML) for every grouped call,
  groups > 1: the Tucker core stage (groups = C_out, 5x5) and the CP
  depthwise stages (5x1, then 1x5). The padded input is copied once from a
  view sliding along its rows only, A[g, (n, i), (c', u, w')] =
  xp[n, g*C/G + c', i*sh + u, w'], shape (G, N*Ho, C/G*kh*Wp): kh copies of
  the input, not kh*kw. The other axis's taps and its stride go into a
  banded (Toeplitz) weight T[g, (c', u, w'), (o', j)] = w[g*O/G + o', c',
  u, w' - j*sw] inside the band and 0 outside, shape (G, C/G*kh*Wp,
  O/G*Wo), built once per call. The forward is one GEMM per group, A @ T;
  ``dx`` is dout @ T^T followed by kh strided row-band adds; ``dw`` is
  A^T @ dout with the band gathered back. The band takes the axis with
  more taps, so a kernel taller than wide (the CP 5x1 stage) is lowered
  from the transposed image.
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
  Neither builds a patch matrix. ``dx`` and ``db`` are those of the patch
  matrix.
* The patch matrix (im2col; Chetlur et al. 2014) for every other dense
  call. ``_cols`` copies a sliding-window view of the input into a C-ordered
  (C*kh*kw, N*Ho*Wo) matrix, and the weights, reshaped to (O, C*kh*kw), go
  on the left. ``dw`` multiplies the same patch matrix by the output
  gradient laid out (N*Ho*Wo, O), and ``dx`` adds one (C, O) x (O, N*Ho*Wo)
  product per kernel tap into a padded buffer.

Where bits hold. The lowered and tap-stacked paths sum in another order
than the einsum kernels this module used before, so they match the direct
loop definition of the convolution to round-off, not bit for bit: on 128
standard-normal tiles of 103 bands the tap-stacked path differs from the
patch matrix by 5e-13 in outputs and gradients of up to 570, and on
standard-normal operands of the library's grouped shapes the lowered path
differs from the loop oracles by up to 6e-14 in values of up to 130. The
patch-matrix operands are the ones numpy 2.4's Einstein summation handed to
BLAS for the same contractions. So for dense batches of two or more, at
least two input channels and outputs larger than 1x1 they keep its bits,
without the extra copies it made for 1x1 kernels. At padding 0 no layout
copies the input to pad it.

Every layout works in slices of about ``_SLICE_BYTES`` of the matrix it
copies. The lowered path takes whole images up to that much lowered input,
the tap-stacked path as many whole images as its patch matrix would hold;
both reuse one buffer across slices, and their ``dw`` adds the slices'
products in order, so their bits follow the slicing, which follows only the
call's shape. A patch-matrix call builds its matrix slice by slice, each
consumed by its ``matmul`` while it is still in cache: the forward slices
whole images (the GEMM's columns), ``dw`` slices input channels (its rows).
No slice splits the contraction, and each slice's ``matmul`` writes its
block of the output in place, so every output element is the same BLAS dot
product as in the unsliced call. Three things would still change bits, and
the slicing avoids each. A GEMM one row or column wide goes down matmul's
gemv path; OpenBLAS's kernels round a matrix edge that is not a whole tile
differently; and small GEMMs get OpenBLAS's small-matrix kernels. So a call
with one output stays whole, every slice edge but the last falls on a
multiple of 16 forward columns or 2 ``dw`` rows (the tile of OpenBLAS's
AVX-512 kernels), and balanced slices hold about half the budget or more
each. This was checked at 1, 2 and 4 OpenBLAS threads on its AVX-512
kernels, and at 1 thread on its AVX2 kernels (Haswell, AMD Zen 2 and 3).
With more threads the AVX2 kernels round a row of ``dw`` differently where
a thread's share of the rows leaves one row over, so there even an unsliced
``matmul``'s bits depend on the thread count, and a sliced ``dw`` can differ
from the unsliced one in the last bit. No slice alignment avoids that: the
shares follow the whole GEMM's size.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

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


def _windows(x4, w, stride, padding):
    """(N, C, Ho, Wo, kh, kw) view of the padded input's receptive fields."""
    sh, sw = _pair(stride)
    return sliding_window_view(_padded(x4, padding), w.shape[2:], axis=(2, 3))[:, :, ::sh, ::sw]


def _cols(win):
    """The patch matrix (C*kh*kw, N*Ho*Wo) of a window view, copied once into C order."""
    n, _, ho, wo, _, _ = win.shape
    return np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(-1, n * ho * wo)


def _image_slices(n, nbytes):
    """Image ranges for the paths that slice whole images: ceil(nbytes /
    _SLICE_BYTES) balanced slices of the ``n`` images."""
    return list(_slices(n, 1, 1, nbytes, True))


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
    return _image_slices(n, 8 * n * c * kh * kw * ho * wo)


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


def _swap(a, flip):
    """``a`` with its last two axes swapped if ``flip``: the lowered path's frame."""
    return a.swapaxes(-1, -2) if flip else a


def _lowered_call(x4, w, stride, padding):
    """(flip, padded input, weights, stride) in the frame whose band holds the
    axis with more taps: with kh > kw the images and kernels are transposed
    (as views), so the lowering copies the input min(kh, kw) times."""
    flip = w.shape[2] > w.shape[3]
    sh, sw = _pair(stride)
    return flip, _swap(_padded(x4, padding), flip), _swap(w, flip), (sw, sh) if flip else (sh, sw)


def _lowered_buffers(xp, kh, ho, groups, *widths):
    """Image ranges for the lowered path, whole images with about _SLICE_BYTES
    of lowered input per slice, and a (G, rows, width) buffer per width sized
    for the largest slice. Reusing one buffer keeps the allocator from
    returning and faulting in the same pages once per slice."""
    n, c, _, wp = xp.shape
    slices = _image_slices(n, 8 * n * c * ho * kh * wp)
    rows = max(b - a for a, b in slices) * ho
    return slices, [np.empty((groups, rows, width)) for width in widths]


def _lowered(xp, kh, sh, buf):
    """A[g, (n, i), (c', u, w')] = xp[n, g*C/G + c', i*sh + u, w']: the padded
    input lowered along its rows, (G, N*Ho, C/G*kh*Wp), copied once into the
    leading rows of ``buf``."""
    n, c, _, wp = xp.shape
    groups = buf.shape[0]
    win = sliding_window_view(xp, kh, axis=2)[:, :, ::sh]
    ho = win.shape[2]
    low = buf[:, :n * ho]
    low.reshape(groups, n, ho, c // groups, kh, wp)[...] = win.reshape(
        n, groups, c // groups, ho, wp, kh).transpose(1, 0, 3, 2, 5, 4)
    return low


def _band(t, kw, sw):
    """The (G, C/G, kh, kw, O/G, Wo) view of the taps in a banded weight laid
    out (G, C/G, kh, Wp, O/G, Wo): tap v of output column j sits at w' = j*sw + v."""
    s = t.strides
    return as_strided(t, t.shape[:3] + (kw,) + t.shape[4:], s[:5] + (sw * s[3] + s[5],))


def _banded_weight(w, groups, sw, wp, wo):
    """T[g, (c', u, w'), (o', j)] = w[g*O/G + o', c', u, w' - j*sw] inside the
    band and 0 outside, laid out (G, C/G*kh*Wp, O/G*Wo)."""
    c_out, c_in_g, kh, kw = w.shape
    o_g = c_out // groups
    t = np.zeros((groups, c_in_g, kh, wp, o_g, wo))
    taps = w.reshape(groups, o_g, c_in_g, kh, kw).transpose(0, 2, 3, 4, 1)
    _band(t, kw, sw)[...] = taps[..., None]
    return t.reshape(groups, c_in_g * kh * wp, o_g * wo)


def _grouped_frame(a4, groups, flip):
    """An (N, C, H, W) array as (N, G, C/G, H, W) in the lowered frame, a view."""
    n, c = a4.shape[:2]
    return _swap(a4.reshape(n, groups, c // groups, *a4.shape[2:]), flip)


def _rows(d5):
    """(N, G, O/G, Ho, Wo) laid out as the lowered GEMM's product, (G, N*Ho, O/G*Wo)."""
    n, groups, o_g, ho, wo = d5.shape
    return np.ascontiguousarray(d5.transpose(1, 0, 3, 2, 4)).reshape(groups, n * ho, o_g * wo)


def _lowered_forward(x4, w, stride, padding, groups, ho, wo):
    """The forward as the lowered input times the banded weight, one GEMM per group."""
    flip, xp, w, (sh, sw) = _lowered_call(x4, w, stride, padding)
    n = x4.shape[0]
    c_out, _, kh, _ = w.shape
    out = np.empty((n, c_out, ho, wo))
    out5 = _grouped_frame(out, groups, flip)
    ho_f, wo_f = out5.shape[3:]
    t = _banded_weight(w, groups, sw, xp.shape[3], wo_f)
    slices, (low, prod) = _lowered_buffers(xp, kh, ho_f, groups, *t.shape[1:])
    for a, b in slices:
        m = (b - a) * ho_f
        np.matmul(_lowered(xp[a:b], kh, sh, low), t, out=prod[:, :m])
        out5[a:b] = prod[:, :m].reshape(groups, b - a, ho_f, -1, wo_f).transpose(1, 0, 3, 2, 4)
    return out


def _lowered_dx(x4, w, d4, stride, padding, groups):
    """dx as the output gradient times the banded weight's transpose, then kh
    strided row-band adds."""
    flip, xp, w, (sh, sw) = _lowered_call(x4, w, stride, padding)
    wp = xp.shape[3]
    _, c_in_g, kh, _ = w.shape
    d5 = _grouped_frame(d4, groups, flip)
    ho_f, wo_f = d5.shape[3:]
    t_t = _banded_weight(w, groups, sw, wp, wo_f).transpose(0, 2, 1)
    dxp = np.zeros(_swap(xp, flip).shape)
    dxp5 = _grouped_frame(dxp, groups, flip)
    slices, (buf,) = _lowered_buffers(xp, kh, ho_f, groups, t_t.shape[2])
    for a, b in slices:
        np.matmul(_rows(d5[a:b]), t_t, out=buf[:, :(b - a) * ho_f])
        prod = buf[:, :(b - a) * ho_f].reshape(groups, b - a, ho_f, c_in_g, kh, wp)
        for u in range(kh):
            dxp5[a:b, :, :, u:u + sh * ho_f:sh] += prod[:, :, :, :, u].transpose(1, 0, 3, 2, 4)
    ph, pw = _pair(padding)
    _, _, h, wd = x4.shape
    return dxp[:, :, ph:ph + h, pw:pw + wd]


def _lowered_dw(x4, w, d4, stride, padding, groups):
    """dw as the lowered input's transpose times the output gradient, with the
    band gathered back into (O, C/G, kh, kw)."""
    flip, xp, w_f, (sh, sw) = _lowered_call(x4, w, stride, padding)
    wp = xp.shape[3]
    c_out, c_in_g, kh, kw = w_f.shape
    d5 = _grouped_frame(d4, groups, flip)
    ho_f, wo_f = d5.shape[3:]
    dt = np.zeros((groups, c_in_g * kh * wp, c_out // groups * wo_f))
    slices, (low,) = _lowered_buffers(xp, kh, ho_f, groups, dt.shape[1])
    for a, b in slices:
        dt += np.matmul(_lowered(xp[a:b], kh, sh, low).transpose(0, 2, 1), _rows(d5[a:b]))
    band = _band(dt.reshape(groups, c_in_g, kh, wp, -1, wo_f), kw, sw).sum(axis=-1)
    dw = band.transpose(0, 4, 1, 2, 3).reshape(c_out, c_in_g, kh, kw)
    return np.ascontiguousarray(_swap(dw, flip))


def conv2d(x, w, bias=None, stride=1, padding=0, groups=1) -> np.ndarray:
    """Grouped 2-D cross-correlation."""
    x4, squeeze = _batched(x)
    w = np.asarray(w, dtype=np.float64)
    ho, wo = _output_size(x4, w, stride, padding, groups)
    if groups > 1:
        out = _lowered_forward(x4, w, stride, padding, groups, ho, wo)
    elif _tap_stacked(w, stride, groups):
        out = _tap_stacked_forward(x4, w, padding, ho, wo)
    else:
        out = _patch_forward(x4, w, stride, padding, ho, wo)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64)[:, None, None]
    return out[0] if squeeze else out


def _patch_forward(x4, w, stride, padding, ho, wo):
    """The forward as weights times the patch matrix, built slice by slice."""
    n = x4.shape[0]
    c_out = w.shape[0]
    w_m = w.reshape(c_out, -1)
    win = _windows(x4, w, stride, padding)
    out = np.empty((c_out, n * ho * wo))
    for a, b in _slices(n, ho * wo, 16, win.nbytes, c_out > 1):
        np.matmul(w_m, _cols(win[a:b]), out=out[:, a * ho * wo:b * ho * wo])
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
    c_out, _, kh, kw = w.shape
    if d4.shape != (n, c_out, ho, wo):
        raise ShapeError(
            f"output gradient has shape {d4.shape}, the convolution gives {(n, c_out, ho, wo)}"
        )

    dw = None
    if need_dw and groups > 1:
        dw = _lowered_dw(x4, w, d4, stride, padding, groups)
    elif need_dw and _tap_stacked(w, stride, groups):
        dw = _tap_stacked_dw(x4, w, d4, padding)
    elif need_dw:
        dout_t = np.ascontiguousarray(d4.transpose(0, 2, 3, 1)).reshape(-1, c_out)
        win = _windows(x4, w, stride, padding)
        dw = np.empty((c * kh * kw, c_out))
        for a, b in _slices(c, kh * kw, 2, win.nbytes, c_out > 1):
            np.matmul(_cols(win[:, a:b]), dout_t, out=dw[a * kh * kw:b * kh * kw])
        dw = dw.T.reshape(w.shape)

    db = d4.sum(axis=(0, 2, 3)) if need_db else None

    dx = None
    if need_dx and groups > 1:
        dx = _lowered_dx(x4, w, d4, stride, padding, groups)
    elif need_dx:
        dout_t = np.ascontiguousarray(d4.transpose(1, 0, 2, 3)).reshape(c_out, -1)
        # (kh, kw, C, O): each tap's transposed weights, contiguous.
        w_t = np.ascontiguousarray(w.transpose(2, 3, 1, 0))
        dxp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw))
        for u in range(kh):
            for v in range(kw):
                contrib = np.matmul(w_t[u, v], dout_t).reshape(c, n, ho, wo)
                dxp[:, :, u:u + sh * ho:sh, v:v + sw * wo:sw] += contrib.transpose(1, 0, 2, 3)
        dx = dxp[:, :, ph:ph + h, pw:pw + wd]
    if dx is not None and squeeze:
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
