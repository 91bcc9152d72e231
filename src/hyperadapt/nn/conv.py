"""2-D convolution kernels (forward and backward) and adaptive average pooling.

Convolution means cross-correlation throughout: no kernel flip. This matters
because decomposition components are orientation-sensitive. Weights are laid
out (out_channels, in_channels // groups, kh, kw); activations are
(N, C, H, W), with single-image (C, H, W) inputs accepted and returned
everywhere. All float64, all deterministic.

Each product of a convolution is a ``matmul``, by one rule: the forward
picks one of two layouts by shape alone (no option), ``dw`` always uses
frames, and ``dx`` is always lowered.

* Tap-stacked forward (kn2row; Vasudevan, Anderson & Gregg 2017, "Parallel
  Multi Channel Convolution using General Matrix Multiplication"; Anderson
  et al. 2017, arXiv:1709.03395) for dense stride-1 calls with a 1x1 kernel
  or fewer outputs than input channels: the pointwise stages and the Scratch
  first layer (64 or 103 bands to 8 filters, 5x5). The weights, laid out
  (kh*kw*O, C), multiply each image's padded input as (C, Hp*Wp), giving
  every tap's output plane; kh*kw shifted-slice adds sum them into the
  (N, O, Ho, Wo) output. A 1x1 kernel's one plane is the output.
* Lowered forward along one axis (MEC; Cho & Brand 2017, "MEC:
  Memory-efficient Convolution for Deep Neural Network", ICML) for every
  other call: grouped calls (the Tucker core stage, groups = C_out, 5x5, and
  the CP depthwise stages, 5x1 then 1x5), strided dense calls, and dense
  calls with C_out >= C_in, such as the mid conv (8 to 16, 3x3) and Reduce's
  RGB conv (3 to 8, 5x5). The padded input is copied once from a view
  sliding along its rows only, A[g, (n, i), (c', u, w')] = xp[n, g*C/G + c',
  i*sh + u, w'], shape (G, N*Ho, C/G*kh*Wp): kh copies of the input, not
  kh*kw. The other axis's taps and its stride go into a banded (Toeplitz)
  weight T[g, (c', u, w'), (o', j)] = w[g*O/G + o', c', u, w' - j*sw] inside
  the band and 0 outside, shape (G, C/G*kh*Wp, O/G*Wo), built once per call.
  The forward is one GEMM per group, A @ T. The band takes the axis with
  more taps, so a kernel taller than wide (the CP 5x1 stage) is lowered from
  the transposed image.

Every call's ``dw`` comes from output-gradient frames, kn2row run backwards.
Tap (u, v)'s frame is a zero plane of the padded input's size holding the
output gradient spread to the stride, output (i, j) at (u + i*sh, v + j*sw).
The frames, laid out (G, kh*kw*O/G, Hp*Wp) per image, multiply the padded
input's transpose, (G, Hp*Wp, C/G), in one batched GEMM per slice, and the
products are summed over images. Every weight the library trains is dense
(the spectral stages, Reduce's 1x1 convs and the Scratch layer); the frozen
grouped stages never ask for ``dw``.

Every call's ``dx`` is a lowered product of its own: the output gradient,
spread to the stride (output row i on row kh-1 + i*sh of a zero frame) and
lowered along its rows, times T with its row taps reversed and its padding
columns dropped. Each input row's kh taps meet in the GEMM, so nothing is
added up afterwards.

Where bits hold. The kernels sum in another order than the direct loop
definition of the convolution, so they match it to round-off, not bit for
bit: on two standard-normal images of each of the library's shapes, the
outputs and gradients differ from the loop oracles by at most 6e-14 in
values of up to 74, and by 3e-13 in values of up to 190 for the Scratch
first layer's 1600-term sums. With one BLAS build, a call's bits follow its
shape alone. Each kernel copies whole images per slice, about
``_SLICE_BYTES`` of the matrix it builds (the tap planes, the ``dw``
frames, or the lowered input or gradient), into buffers allocated once per
call; no slice splits a GEMM's contraction, and ``dw`` adds the slices'
products in order. At padding 0 no kernel copies the input to pad it.
"""

from __future__ import annotations

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


# Bytes per slice of the matrix a layout builds. On a 2-core Xeon (2 MiB L2
# per core; numpy 2.4.6, OpenBLAS 0.3.31) the Tucker stage's dx at 128 tiles
# took 8.5 ms with 8 or 16 MiB slices, whose one 7.9 MB buffer every call
# faulted in afresh (2,400 minor page faults), against 3.0 ms at 4 MiB and
# 3.2 ms at 2 MiB. Every other call of the four models timed within noise
# from 2 to 16 MiB.
_SLICE_BYTES = 4 << 20


def _padded(x4, padding):
    """The input zero-padded, or the input itself at padding 0."""
    ph, pw = _pair(padding)
    return np.pad(x4, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else x4


def _image_slices(n, nbytes):
    """ceil(nbytes / _SLICE_BYTES) balanced (start, stop) ranges of whole
    images, at most one per image."""
    count = max(1, min(-(-nbytes // _SLICE_BYTES), n))
    edges = [n * i // count for i in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _tap_stacked(w, stride, groups) -> bool:
    """Whether a call's forward is tap-stacked: dense, stride 1, and a 1x1
    kernel or fewer outputs than input channels. Every other forward is lowered."""
    c_out, c_in, kh, kw = w.shape
    return groups == 1 and _pair(stride) == (1, 1) and (kh * kw == 1 or c_out < c_in)


def _tap_slices(n, w, hp, wp):
    """Image ranges for the tap planes of the forward and the frames of dw:
    about _SLICE_BYTES of them, kh*kw*O*Hp*Wp values per image, in each slice."""
    c_out, _, kh, kw = w.shape
    return _image_slices(n, 8 * n * kh * kw * c_out * hp * wp)


def _tap_stacked_forward(x4, w, padding, ho, wo):
    """All taps' output planes from one GEMM per image, then kh*kw shifted adds."""
    xp = _padded(x4, padding)
    n, c, hp, wp = xp.shape
    c_out, _, kh, kw = w.shape
    # (kh*kw*O, C): every tap's weights, stacked.
    w_t = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(-1, c)
    if kh * kw == 1:  # one tap, whose plane is the output
        return np.matmul(w_t, xp.reshape(n, c, hp * wp)).reshape(n, c_out, ho, wo)
    out = np.empty((n, c_out, ho, wo))
    slices = _tap_slices(n, w, hp, wp)
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


def _tap_stacked_dw(x4, w, d4, stride, padding, groups):
    """dw from output-gradient frames, one per tap, against the padded input."""
    xp = _padded(x4, padding)
    n, c, hp, wp = xp.shape
    c_out, c_in_g, kh, kw = w.shape
    o_g = c_out // groups
    sh, sw = _pair(stride)
    ho, wo = d4.shape[2:]
    slices = _tap_slices(n, w, hp, wp)
    # Tap (u, v)'s frame is dout spread to the stride, output (i, j) at
    # (u + i*sh, v + j*sw) of a zero plane of the padded input's size. Every
    # slice writes the same places of its images' frames, so the zeros are
    # laid once.
    frames = np.zeros((max(b - a for a, b in slices), groups, kh * kw * o_g, hp * wp))
    taps = frames.reshape(-1, groups, kh, kw, o_g, hp, wp)
    d5 = d4.reshape(n, groups, o_g, ho, wo)
    dw = np.zeros((groups, kh * kw * o_g, c_in_g))
    for a, b in slices:
        for u in range(kh):
            for v in range(kw):
                taps[:b - a, :, u, v, :, u:u + sh * ho:sh, v:v + sw * wo:sw] = d5[a:b]
        x_t = xp[a:b].reshape(b - a, groups, c_in_g, hp * wp).swapaxes(-1, -2)
        dw += np.matmul(frames[:b - a], x_t).sum(axis=0)
    dw = dw.reshape(groups, kh, kw, o_g, c_in_g).transpose(0, 3, 4, 1, 2)
    return np.ascontiguousarray(dw).reshape(c_out, c_in_g, kh, kw)


def _swap(a, flip):
    """``a`` with its last two axes swapped if ``flip``: the lowered path's frame."""
    return a.swapaxes(-1, -2) if flip else a


def _lowered_call(w, stride, padding):
    """(flip, weights, stride, padding) in the frame whose band holds the axis
    with more taps: with kh > kw the images and kernels are transposed (as
    views), so the lowering copies the input min(kh, kw) times."""
    flip = w.shape[2] > w.shape[3]
    pairs = _pair(stride), _pair(padding)
    if flip:
        return flip, w.swapaxes(2, 3), *(p[::-1] for p in pairs)
    return flip, w, *pairs


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


def _lowered_product(xp, kh, sh, t, out5):
    """out5 (N, G, O/G, Ho, Wo) = xp lowered along its rows times the banded
    weight ``t``, one GEMM per group and slice. Slices are whole images with
    about _SLICE_BYTES of lowered input each. The lowered input and the
    product each have one buffer, sized for the largest slice: reusing it
    keeps the allocator from returning and faulting in the same pages once
    per slice."""
    n, c, _, wp = xp.shape
    _, groups, _, ho, wo = out5.shape
    slices = _image_slices(n, 8 * n * c * ho * kh * wp)
    rows = max(b - a for a, b in slices) * ho
    low, prod = (np.empty((groups, rows, width)) for width in t.shape[1:])
    for a, b in slices:
        m = (b - a) * ho
        np.matmul(_lowered(xp[a:b], kh, sh, low), t, out=prod[:, :m])
        out5[a:b] = prod[:, :m].reshape(groups, b - a, ho, -1, wo).transpose(1, 0, 3, 2, 4)


def _lowered_forward(x4, w, stride, padding, groups, ho, wo):
    """The forward as the lowered input times the banded weight."""
    flip, w, (sh, sw), padding = _lowered_call(w, stride, padding)
    xp = _padded(_swap(x4, flip), padding)
    out = np.empty((x4.shape[0], w.shape[0], ho, wo))
    out5 = _grouped_frame(out, groups, flip)
    t = _banded_weight(w, groups, sw, xp.shape[3], out5.shape[4])
    _lowered_product(xp, w.shape[2], sh, t, out5)
    return out


def _lowered_dx(x4, w, d4, stride, padding, groups):
    """dx as a lowered product too: the output gradient spread to its stride,
    lowered along its rows, times the banded weight with its row taps reversed
    and its padding columns dropped."""
    flip, w, (sh, sw), (ph, pw) = _lowered_call(w, stride, padding)
    dx = np.empty(x4.shape)
    dx5 = _grouped_frame(dx, groups, flip)
    n, _, c_in_g, h, wd = dx5.shape
    c_out, _, kh, _ = w.shape
    d = _swap(d4, flip)
    ho, wo = d.shape[2:]
    # Output row i lands on spread row kh-1 + i*sh, so padded input row
    # r = i*sh + u meets it at window tap kh-1 - u: T's row taps reversed.
    # Only the windows of unpadded rows are lowered. With one row tap and
    # stride 1 the spread gradient is the gradient itself.
    spread = d
    if kh > 1 or sh > 1:
        spread = np.zeros((n, c_out, h + 2 * ph + kh - 1, wo))
        spread[:, :, kh - 1:kh - 1 + sh * ho:sh] = d
    t = _banded_weight(w, groups, sw, wd + 2 * pw, wo).reshape(
        groups, c_in_g, kh, -1, c_out // groups, wo)[:, :, ::-1, pw:pw + wd]
    # (G, O/G*kh*Wo, C/G*W): rows (o', kh-1 - u, j), the spread gradient's
    # lowered columns; columns (c', w), the rows of dx.
    t = np.ascontiguousarray(t.transpose(0, 4, 2, 5, 1, 3)).reshape(groups, -1, c_in_g * wd)
    _lowered_product(spread[:, :, ph:ph + h + kh - 1], kh, 1, t, dx5)
    return dx


def conv2d(x, w, bias=None, stride=1, padding=0, groups=1) -> np.ndarray:
    """Grouped 2-D cross-correlation."""
    x4, squeeze = _batched(x)
    w = np.asarray(w, dtype=np.float64)
    ho, wo = _output_size(x4, w, stride, padding, groups)
    if _tap_stacked(w, stride, groups):
        out = _tap_stacked_forward(x4, w, padding, ho, wo)
    else:
        out = _lowered_forward(x4, w, stride, padding, groups, ho, wo)
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
    want = (x4.shape[0], w.shape[0], ho, wo)
    if d4.shape != want:
        raise ShapeError(f"output gradient has shape {d4.shape}, the convolution gives {want}")

    dw = _tap_stacked_dw(x4, w, d4, stride, padding, groups) if need_dw else None
    db = d4.sum(axis=(0, 2, 3)) if need_db else None
    dx = None
    if need_dx:
        dx = _lowered_dx(x4, w, d4, stride, padding, groups)
        dx = dx[0] if squeeze else dx
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
