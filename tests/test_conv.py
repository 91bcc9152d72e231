import sys
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from hyperadapt.errors import ShapeError
from hyperadapt.nn import conv
from hyperadapt.nn.conv import (
    _batched,
    _output_size,
    _pair,
    adaptive_avg_pool,
    adaptive_avg_pool_backward,
    conv2d,
    conv2d_backward,
    conv_output_size,
)


def conv_bruteforce(x, w, bias=None, stride=1, padding=0, groups=1):
    """Direct six-loop cross-correlation, the independent oracle."""
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    c, h, wd = x.shape
    c_out, c_in_g, kh, kw = w.shape
    og = c_out // groups
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    ho = conv_output_size(h, kh, sh, ph)
    wo = conv_output_size(wd, kw, sw, pw)
    out = np.zeros((c_out, ho, wo))
    for o in range(c_out):
        g = o // og
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for cc in range(c_in_g):
                    for u in range(kh):
                        for v in range(kw):
                            acc += w[o, cc, u, v] * xp[g * c_in_g + cc, i * sh + u, j * sw + v]
                out[o, i, j] = acc
        if bias is not None:
            out[o] += bias[o]
    return out


def conv_backward_bruteforce(x, w, dout, stride=1, padding=0, groups=1):
    """Direct loops for (dx, dw) of one image, the independent oracle for gradients."""
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    c, h, wd = x.shape
    c_out, c_in_g, kh, kw = w.shape
    og = c_out // groups
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for o in range(c_out):
        g = o // og
        for i in range(dout.shape[1]):
            for j in range(dout.shape[2]):
                for cc in range(c_in_g):
                    for u in range(kh):
                        for v in range(kw):
                            r, q = i * sh + u, j * sw + v
                            dxp[g * c_in_g + cc, r, q] += w[o, cc, u, v] * dout[o, i, j]
                            dw[o, cc, u, v] += dout[o, i, j] * xp[g * c_in_g + cc, r, q]
    return dxp[:, ph:ph + h, pw:pw + wd], dw


# The einsum kernels these convolutions replaced, copied unchanged (only
# renamed). The patch-matrix kernels must keep their bits.

def _einsum_windows(x4, w, stride, padding):
    """(N, C, Ho, Wo, kh, kw) view of the padded input's receptive fields."""
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    xp = np.pad(x4, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    return sliding_window_view(xp, w.shape[2:], axis=(2, 3))[:, :, ::sh, ::sw]


def _split_groups(a, axis, groups):
    """Split ``axis`` into (groups, size // groups); a no-op when groups == 1."""
    if groups == 1:
        return a
    shape = a.shape
    return a.reshape(shape[:axis] + (groups, shape[axis] // groups) + shape[axis + 1:])


def einsum_conv2d(x, w, bias=None, stride=1, padding=0, groups=1) -> np.ndarray:
    """Grouped 2-D cross-correlation."""
    x4, squeeze = _batched(x)
    w = np.asarray(w, dtype=np.float64)
    ho, wo = _output_size(x4, w, stride, padding, groups)
    g = "g" if groups > 1 else ""
    win = _split_groups(_einsum_windows(x4, w, stride, padding), 1, groups)
    out = np.einsum(f"n{g}chwuv,{g}ocuv->n{g}ohw", win, _split_groups(w, 0, groups),
                    optimize=True)
    out = out.reshape(x4.shape[0], w.shape[0], ho, wo)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64)[:, None, None]
    return out[0] if squeeze else out


def einsum_conv2d_backward(x, w, dout, stride=1, padding=0, groups=1,
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
    g = "g" if groups > 1 else ""
    dout_g = _split_groups(d4, 1, groups)

    dw = None
    if need_dw:
        win = _split_groups(_einsum_windows(x4, w, stride, padding), 1, groups)
        dw = np.einsum(f"n{g}ohw,n{g}chwuv->{g}ocuv", dout_g, win, optimize=True)
        dw = dw.reshape(w.shape)

    db = d4.sum(axis=(0, 2, 3)) if need_db else None

    dx = None
    if need_dx:
        w_g = _split_groups(w, 0, groups)
        dxp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw))
        for u in range(kh):
            for v in range(kw):
                contrib = np.einsum(f"n{g}ohw,{g}oc->n{g}chw", dout_g, w_g[..., u, v],
                                    optimize=True)
                dxp[:, :, u:u + sh * ho:sh, v:v + sw * wo:sw] += contrib.reshape(n, c, ho, wo)
        dx = dxp[:, :, ph:ph + h, pw:pw + wd]
        if squeeze:
            dx = dx[0]
    return dx, dw, db


def random_geometry(rng):
    """A random conv call: dense, depthwise, one output per group or several per group."""
    kind = rng.integers(4)
    if kind == 0:
        groups, c_in_g, o_g = 1, int(rng.integers(1, 9)), int(rng.integers(1, 9))
    elif kind == 1:
        groups, c_in_g, o_g = int(rng.integers(1, 9)), 1, 1
    elif kind == 2:
        groups, c_in_g, o_g = int(rng.integers(2, 7)), int(rng.integers(1, 4)), 1
    else:
        groups, c_in_g = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        o_g = int(rng.integers(2, 4))
    kh, kw = (1, 1) if rng.random() < 0.2 else (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    return dict(n=int(rng.integers(1, 5)), c=groups * c_in_g, h=int(rng.integers(1, 12)),
                wd=int(rng.integers(1, 12)), c_out=groups * o_g, c_in_g=c_in_g, kh=kh, kw=kw,
                stride=(int(rng.integers(1, 3)), int(rng.integers(1, 3))),
                padding=(int(rng.integers(0, 3)), int(rng.integers(0, 3))), groups=groups)


def sweep_geometries(seed, count, keep):
    """``count`` random conv calls with a non-empty output that pass ``keep``."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        g = random_geometry(rng)
        (sh, sw), (ph, pw) = g["stride"], g["padding"]
        g["ho"] = conv_output_size(g["h"], g["kh"], sh, ph)
        g["wo"] = conv_output_size(g["wd"], g["kw"], sw, pw)
        if g["ho"] >= 1 and g["wo"] >= 1 and keep(g):
            found.append(g)
    return found


def tap_stacked(g):
    """The calls nn.conv runs tap-stacked: dense, stride 1, more than one tap,
    fewer outputs than input channels."""
    return (g["groups"] == 1 and g["stride"] == (1, 1) and g["kh"] * g["kw"] > 1
            and g["c_out"] < g["c"])


def bit_exact_scope(g):
    """Where the patch-matrix kernels give the einsum kernels' bits: dense calls
    off the tap-stacked path (grouped calls are lowered)."""
    return (g["groups"] == 1 and g["n"] >= 2 and g["c"] >= 2 and g["ho"] * g["wo"] > 1
            and not tap_stacked(g))


def random_operands(g, rng):
    x = rng.standard_normal((g["n"], g["c"], g["h"], g["wd"]))
    w = rng.standard_normal((g["c_out"], g["c_in_g"], g["kh"], g["kw"]))
    dout = rng.standard_normal((g["n"], g["c_out"], g["ho"], g["wo"]))
    return x, w, dout


def assert_matches_bruteforce(x, w, dout, stride=1, padding=0, groups=1):
    """The forward, dx and dw within 1e-12 of the loop oracles, image by image."""
    out = conv2d(x, w, None, stride, padding, groups)
    dx, dw, _ = conv2d_backward(x, w, dout, stride, padding, groups)
    want_dw = np.zeros_like(w)
    for i in range(len(x)):
        assert np.abs(out[i] - conv_bruteforce(x[i], w, None, stride, padding, groups)).max() <= 1e-12
        want_dx, dw_i = conv_backward_bruteforce(x[i], w, dout[i], stride, padding, groups)
        assert np.abs(dx[i] - want_dx).max() <= 1e-12
        want_dw += dw_i
    assert np.abs(dw - want_dw).max() <= 1e-12


class TestConvForward:
    def test_pointwise_identity(self):
        x = np.random.default_rng(0).standard_normal((3, 5, 5))
        w = np.eye(3).reshape(3, 3, 1, 1)
        assert np.allclose(conv2d(x, w), x)

    def test_ones_kernel_on_constant_input(self):
        out = conv2d(np.ones((1, 5, 5)), np.ones((1, 1, 3, 3)))
        assert out.shape == (1, 3, 3)
        assert np.allclose(out, 9.0)

    @pytest.mark.parametrize("stride,padding,groups", [
        (1, 0, 1), (2, 1, 1), (1, 2, 1), (1, 0, 2), (2, 1, 2),
    ])
    def test_matches_bruteforce(self, stride, padding, groups):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 7, 6))
        w = rng.standard_normal((6, 4 // groups, 3, 3))
        bias = rng.standard_normal(6)
        got = conv2d(x, w, bias, stride, padding, groups)
        want = conv_bruteforce(x, w, bias, stride, padding, groups)
        assert np.abs(got - want).max() <= 1e-12

    def test_batched_matches_per_image(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 2, 6, 6))
        w = rng.standard_normal((4, 2, 3, 3))
        batched = conv2d(x, w)
        for n in range(3):
            assert np.allclose(batched[n], conv2d(x[n], w))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(np.ones((3, 5, 5)), np.ones((2, 4, 3, 3)))

    def test_kernel_larger_than_input(self):
        with pytest.raises(ShapeError):
            conv2d(np.ones((1, 2, 2)), np.ones((1, 1, 3, 3)))


class TestConvBackward:
    @pytest.mark.parametrize("stride,padding,groups", [
        (1, 0, 1), (2, 1, 1), (1, 1, 2),
    ])
    def test_gradients_match_finite_differences(self, stride, padding, groups):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 4, 6, 6))
        w = rng.standard_normal((4, 4 // groups, 3, 3))
        b = rng.standard_normal(4)
        dout = rng.standard_normal(conv2d(x, w, b, stride, padding, groups).shape)

        def loss(xv, wv, bv):
            return float((conv2d(xv, wv, bv, stride, padding, groups) * dout).sum())

        dx, dw, db = conv2d_backward(x, w, dout, stride, padding, groups, need_db=True)
        eps = 1e-6
        for arr, grad in ((x, dx), (w, dw), (b, db)):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for idx in rng.choice(flat.size, size=min(12, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                hi = loss(x, w, b)
                flat[idx] = orig - eps
                lo = loss(x, w, b)
                flat[idx] = orig
                assert gflat[idx] == pytest.approx((hi - lo) / (2 * eps), rel=1e-5, abs=1e-7)


    @pytest.mark.parametrize("x_shape,w_shape,groups", [
        ((1, 3, 6, 6), (4, 2, 3, 3), 1),
        ((1, 4, 6, 6), (3, 2, 3, 3), 2),
    ])
    def test_channel_and_group_mismatch(self, x_shape, w_shape, groups):
        x, w = np.ones(x_shape), np.ones(w_shape)
        with pytest.raises(ShapeError):
            conv2d_backward(x, w, np.ones((1, w_shape[0], 4, 4)), groups=groups)

    @pytest.mark.parametrize("dout_shape", [
        (1, 3, 4, 4), (1, 4, 3, 4), (1, 4, 4, 1), (2, 4, 4, 4), (4, 4),
    ])
    def test_dout_shape_mismatch(self, dout_shape):
        # (1, 4, 6, 6) input, 3x3 kernel, no padding: the output is (1, 4, 4, 4).
        x, w = np.ones((1, 4, 6, 6)), np.ones((4, 4, 3, 3))
        with pytest.raises(ShapeError):
            conv2d_backward(x, w, np.ones(dout_shape))

    @pytest.mark.parametrize("stride,padding,groups", [
        (1, 0, 1), (2, 1, 1), (1, 1, 2), (2, 0, 4),
    ])
    def test_skipping_dx_keeps_dw_and_db_bits(self, stride, padding, groups):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 4, 7, 6))
        w = rng.standard_normal((8, 4 // groups, 3, 2))
        dout = rng.standard_normal(conv2d(x, w, None, stride, padding, groups).shape)
        dx, dw, db = conv2d_backward(x, w, dout, stride, padding, groups, need_db=True)
        skip_dx, skip_dw, skip_db = conv2d_backward(x, w, dout, stride, padding, groups,
                                                    need_dx=False, need_db=True)
        assert dx is not None and skip_dx is None
        assert np.array_equal(dw, skip_dw) and np.array_equal(db, skip_db)


class TestConvArguments:
    @pytest.mark.parametrize("stride,padding", [
        (0, 0), ((1, 0), 0), (-1, 1), (1, -1), (1, (0, -2)),
    ])
    def test_bad_stride_or_padding(self, stride, padding):
        x, w = np.ones((1, 2, 6, 6)), np.ones((3, 2, 3, 3))
        with pytest.raises(ShapeError, match="stride"):
            conv2d(x, w, stride=stride, padding=padding)
        with pytest.raises(ShapeError, match="stride"):
            conv2d_backward(x, w, np.ones((1, 3, 4, 4)), stride=stride, padding=padding)


class TestAgainstEinsumKernels:
    @pytest.mark.skipif(not np.__version__.startswith("2.4."),
                        reason="bit identity checked against numpy 2.4's einsum")
    def test_bits_match_in_scope(self):
        rng = np.random.default_rng(11)
        for g in sweep_geometries(7, 600, bit_exact_scope):
            x, w, dout = random_operands(g, rng)
            args = (g["stride"], g["padding"], g["groups"])
            new = [conv2d(x, w, None, *args), *conv2d_backward(x, w, dout, *args)[:2]]
            old = [einsum_conv2d(x, w, None, *args),
                   *einsum_conv2d_backward(x, w, dout, *args)[:2]]
            for what, a, b in zip(("forward", "dx", "dw"), new, old):
                assert np.array_equal(a, b), (what, g)
                signs_differ = np.signbit(a) != np.signbit(b)
                if g["c_in_g"] * g["kh"] * g["kw"] == 1:
                    # einsum multiplies a one-term contraction and keeps a
                    # zero product's sign; matmul adds it to +0.
                    signs_differ &= b != 0
                assert not signs_differ.any(), (what, g)

    def test_outside_scope_matches_bruteforce(self):
        rng = np.random.default_rng(12)
        for g in sweep_geometries(8, 60, lambda g: not bit_exact_scope(g)):
            assert_matches_bruteforce(*random_operands(g, rng), g["stride"], g["padding"],
                                      g["groups"])


TAP_STACKED = ("_tap_stacked_forward", "_tap_stacked_dw")
LOWERED = ("_lowered_forward", "_lowered_dw", "_lowered_dx")  # in conv2d_backward's order


def record_kernels(monkeypatch, names):
    """Record the calls to the named nn.conv kernels by name."""
    calls = []
    for name in names:
        def recording(*args, name=name, real=getattr(conv, name)):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(conv, name, recording)
    return calls


class TestTapStacked:
    @pytest.mark.parametrize("budget", [None, 1024])
    def test_sweep_matches_bruteforce(self, monkeypatch, budget):
        if budget:  # every image a slice of its own
            monkeypatch.setattr(conv, "_SLICE_BYTES", budget)
        calls = record_kernels(monkeypatch, TAP_STACKED)
        rng = np.random.default_rng(16)
        for g in sweep_geometries(9, 60, tap_stacked):
            calls.clear()
            assert_matches_bruteforce(*random_operands(g, rng), 1, g["padding"])
            assert calls == ["_tap_stacked_forward", "_tap_stacked_dw"], g

    @pytest.mark.parametrize("n,c,h,wd,c_out,kh,kw,padding", [
        (1, 5, 7, 6, 1, 3, 2, 0),         # one image, one output, 3x2 taps
        (3, 6, 8, 5, 2, 2, 4, (1, 2)),    # 2x4 taps, unequal padding
        (4, 4, 5, 5, 3, 5, 5, 2),         # 5x5 taps over a 5x5 input, padding 2
    ])
    def test_cases_match_bruteforce(self, monkeypatch, n, c, h, wd, c_out, kh, kw, padding):
        calls = record_kernels(monkeypatch, TAP_STACKED)
        rng = np.random.default_rng(17)
        x = rng.standard_normal((n, c, h, wd))
        w = rng.standard_normal((c_out, c, kh, kw))
        dout = rng.standard_normal(conv2d(x, w, None, 1, padding).shape)
        assert_matches_bruteforce(x, w, dout, 1, padding)
        assert calls == ["_tap_stacked_forward"] * 2 + ["_tap_stacked_dw"]

    def test_single_image_matches_bruteforce(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((6, 9, 7))
        w = rng.standard_normal((4, 6, 3, 3))
        b = rng.standard_normal(4)
        out = conv2d(x, w, b, padding=1)
        assert np.abs(out - conv_bruteforce(x, w, b, 1, 1)).max() <= 1e-12
        dout = rng.standard_normal(out.shape)
        dx, dw, db = conv2d_backward(x, w, dout, padding=1, need_db=True)
        want_dx, want_dw = conv_backward_bruteforce(x, w, dout, 1, 1)
        assert np.abs(dx - want_dx).max() <= 1e-12
        assert np.abs(dw - want_dw).max() <= 1e-12
        assert np.allclose(db, dout.sum(axis=(1, 2)))

    @pytest.mark.parametrize("c_out,c,stride,kernel", [
        (8, 8, 1, 5), (4, 8, 2, 5), (4, 8, 1, 1),
    ])
    def test_other_calls_take_the_patch_matrix(self, monkeypatch, c_out, c, stride, kernel):
        calls = record_kernels(monkeypatch, TAP_STACKED)
        x = np.ones((2, c, 9, 9))
        w = np.ones((c_out, c, kernel, kernel))
        conv2d_backward(x, w, np.ones(conv2d(x, w, stride=stride).shape), stride=stride)
        assert calls == []


def lowered(g):
    """The calls nn.conv lowers along one axis: every grouped call."""
    return g["groups"] > 1


class TestLowered:
    @pytest.mark.parametrize("budget", [None, 1024])
    def test_sweep_matches_bruteforce(self, monkeypatch, budget):
        if budget:  # a few images, often one, per slice
            monkeypatch.setattr(conv, "_SLICE_BYTES", budget)
        calls = record_kernels(monkeypatch, LOWERED)
        slices = record_slices(monkeypatch)
        rng = np.random.default_rng(19)
        # Kinds 1 to 3 of random_geometry: depthwise, one output per group and
        # several outputs per group, with stride and padding pairs.
        for g in sweep_geometries(10, 60, lowered):
            calls.clear()
            assert_matches_bruteforce(*random_operands(g, rng), g["stride"], g["padding"],
                                      g["groups"])
            assert calls == list(LOWERED), g
        assert any(len(ranges) > 1 for ranges in slices) == bool(budget)

    @pytest.mark.parametrize("n,c,h,wd,c_out,kh,kw,stride,padding,groups", [
        (2, 16, 9, 8, 8, 5, 5, 1, 0, 8),               # the Tucker stage: 2 channels per output
        (3, 6, 10, 7, 6, 5, 1, (2, 1), (1, 0), 6),     # CP's vertical stage, lowered transposed
        (3, 6, 7, 10, 6, 1, 5, (1, 2), (0, 1), 6),     # CP's horizontal stage
        (1, 6, 7, 6, 9, 2, 4, 2, (2, 1), 3),           # one image, 2x4 taps, 3 outputs per group
        (2, 4, 6, 9, 4, 4, 2, (1, 3), 0, 4),           # 4x2 taps, lowered transposed
        (4, 6, 5, 5, 4, 1, 1, 1, 1, 2),                # 1x1 grouped, padded
    ])
    @pytest.mark.parametrize("budget", [None, 1024])
    def test_cases_match_bruteforce(self, monkeypatch, budget, n, c, h, wd, c_out, kh, kw,
                                    stride, padding, groups):
        if budget:
            monkeypatch.setattr(conv, "_SLICE_BYTES", budget)
        calls = record_kernels(monkeypatch, LOWERED)
        rng = np.random.default_rng(20)
        x = rng.standard_normal((n, c, h, wd))
        w = rng.standard_normal((c_out, c // groups, kh, kw))
        dout = rng.standard_normal(conv2d(x, w, None, stride, padding, groups).shape)
        assert_matches_bruteforce(x, w, dout, stride, padding, groups)
        assert calls == ["_lowered_forward"] * 2 + list(LOWERED[1:])

    def test_single_image_matches_bruteforce(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((6, 9, 7))
        w = rng.standard_normal((6, 2, 3, 4))
        b = rng.standard_normal(6)
        out = conv2d(x, w, b, (2, 1), (1, 2), groups=3)
        assert np.abs(out - conv_bruteforce(x, w, b, (2, 1), (1, 2), 3)).max() <= 1e-12
        dout = rng.standard_normal(out.shape)
        dx, dw, db = conv2d_backward(x, w, dout, (2, 1), (1, 2), 3, need_db=True)
        want_dx, want_dw = conv_backward_bruteforce(x, w, dout, (2, 1), (1, 2), 3)
        assert dx.shape == x.shape
        assert np.abs(dx - want_dx).max() <= 1e-12
        assert np.abs(dw - want_dw).max() <= 1e-12
        assert np.allclose(db, dout.sum(axis=(1, 2)))

    def test_only_grouped_calls_are_lowered(self, monkeypatch):
        calls = record_kernels(monkeypatch, LOWERED)
        rng = np.random.default_rng(22)
        geometries = sweep_geometries(11, 80, lambda g: True)
        assert {g["groups"] > 1 for g in geometries} == {True, False}
        for g in geometries:
            calls.clear()
            x, w, dout = random_operands(g, rng)
            args = (g["stride"], g["padding"], g["groups"])
            conv2d(x, w, None, *args)
            conv2d_backward(x, w, dout, *args)
            assert calls == (list(LOWERED) if lowered(g) else []), g

    def test_peak_memory_is_bounded(self):
        # The Tucker stage of 200 tiles: its patch matrix was 92 MB.
        rng = np.random.default_rng(23)
        x = rng.standard_normal((200, 16, 16, 16))
        w = rng.standard_normal((8, 2, 5, 5))
        dout = rng.standard_normal((200, 8, 12, 12))
        tracemalloc.start()
        try:
            out = conv2d(x, w, groups=8)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            dx, _, _ = conv2d_backward(x, w, dout, groups=8, need_dw=False)
            dx_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert forward_peak <= 3 * conv._SLICE_BYTES + out.nbytes
        assert dx_peak <= 3 * conv._SLICE_BYTES + dx.nbytes


def record_slices(monkeypatch):
    """Record each conv call's patch-matrix slices as (start, stop) ranges."""
    calls = []

    def recording(*args):
        ranges = list(real(*args))
        calls.append(ranges)
        return ranges

    real = conv._slices
    monkeypatch.setattr(conv, "_slices", recording)
    return calls


class TestSlicing:
    @pytest.mark.recorded_blas
    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", [
        ((204, 8, 12, 12), (16, 8, 3, 3), 1, 1),
        ((80, 64, 16, 16), (16, 64, 3, 3), 2, 1),
        ((150, 103, 16, 16), (16, 103, 1, 1), 1, 0),
    ])
    def test_bits_match_one_slice(self, monkeypatch, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        dout = rng.standard_normal(conv2d(x, w, None, stride, padding).shape)
        calls = record_slices(monkeypatch)
        sliced = [conv2d(x, w, None, stride, padding),
                  *conv2d_backward(x, w, dout, stride, padding, need_db=True)]
        assert [len(ranges) > 1 for ranges in calls] == [True, True]  # forward, dw
        monkeypatch.setattr(conv, "_SLICE_BYTES", sys.maxsize)
        calls.clear()
        whole = [conv2d(x, w, None, stride, padding),
                 *conv2d_backward(x, w, dout, stride, padding, need_db=True)]
        assert [len(ranges) for ranges in calls] == [1, 1]
        for what, a, b in zip(("forward", "dx", "dw", "db"), sliced, whole):
            assert np.array_equal(a, b), what
            assert not (np.signbit(a) != np.signbit(b)).any(), what

    @pytest.mark.parametrize("n,c,h,wd,c_out,kh,kw,stride,padding", [
        (5, 5, 4, 6, 6, 3, 3, 1, 0),     # 2x4 outputs, 3x3 taps: pairs of images and channels
        (7, 4, 4, 4, 3, 1, 1, 1, 0),     # pointwise, 4x4 outputs: single images
        (1, 3, 7, 5, 4, 3, 2, 2, 1),     # 3x2 taps: single channels; stride and padding
        (2, 5, 9, 9, 3, 5, 5, 2, 2),     # 5x5 taps: pairs of channels, the last slice three
    ])
    def test_tiny_budget_matches_bruteforce(self, monkeypatch, n, c, h, wd, c_out, kh, kw,
                                            stride, padding):
        monkeypatch.setattr(conv, "_SLICE_BYTES", 1024)
        calls = record_slices(monkeypatch)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((n, c, h, wd))
        w = rng.standard_normal((c_out, c, kh, kw))
        dout = rng.standard_normal(conv2d(x, w, None, stride, padding).shape)
        assert_matches_bruteforce(x, w, dout, stride, padding)
        # The forward or dw is cut into slices of unequal size.
        assert any(len({b - a for a, b in ranges}) > 1 for ranges in calls)

    def test_peak_memory_is_bounded(self):
        # Whole patch matrices were 369 MB for this forward and 380 MB for this dw.
        rng = np.random.default_rng(15)
        x = rng.standard_normal((200, 64, 16, 16))
        w = rng.standard_normal((8, 64, 5, 5))
        tracemalloc.start()
        try:
            out = conv2d(x, w)
            forward_peak = tracemalloc.get_traced_memory()[1]
            x = rng.standard_normal((128, 103, 16, 16))
            w = rng.standard_normal((8, 103, 5, 5))
            dout = rng.standard_normal((128, 8, 12, 12))
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            conv2d_backward(x, w, dout, need_dx=False)
            dw_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert forward_peak <= 3 * conv._SLICE_BYTES + out.nbytes
        assert dw_peak <= 3 * conv._SLICE_BYTES + dout.nbytes


class TestAdaptivePool:
    def test_identity_when_target_equals_input(self):
        x = np.random.default_rng(4).standard_normal((2, 4, 4))
        assert np.allclose(adaptive_avg_pool(x, (4, 4)), x)

    def test_constant_input(self):
        assert np.allclose(adaptive_avg_pool(np.full((1, 5, 7), 3.0), (2, 2)), 3.0)

    def test_global_mean(self):
        x = np.random.default_rng(5).standard_normal((3, 6, 6))
        out = adaptive_avg_pool(x, (1, 1))
        assert np.allclose(out[:, 0, 0], x.mean(axis=(1, 2)))

    def test_overlapping_windows(self):
        # H=5 -> windows [0,3) and [2,5): row 2 belongs to both
        x = np.arange(5.0).reshape(1, 5, 1)
        out = adaptive_avg_pool(x, (2, 1))
        assert np.allclose(out.ravel(), [1.0, 3.0])

    def test_target_too_large(self):
        with pytest.raises(ShapeError):
            adaptive_avg_pool(np.ones((1, 2, 2)), (3, 3))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 2, 5, 7))
        dout = rng.standard_normal((1, 2, 2, 3))
        dx = adaptive_avg_pool_backward(dout, x.shape, (2, 3))
        eps = 1e-6
        flat = x.reshape(-1)
        for idx in rng.choice(flat.size, size=10, replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = float((adaptive_avg_pool(x, (2, 3)) * dout).sum())
            flat[idx] = orig - eps
            lo = float((adaptive_avg_pool(x, (2, 3)) * dout).sum())
            flat[idx] = orig
            assert dx.reshape(-1)[idx] == pytest.approx((hi - lo) / (2 * eps), rel=1e-6, abs=1e-9)
