import tracemalloc

import numpy as np
import pytest

from hyperadapt.errors import ShapeError
from hyperadapt.nn import conv
from hyperadapt.nn.conv import (
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
    """The calls nn.conv runs tap-stacked: dense, stride 1, and a 1x1 kernel or
    fewer outputs than input channels. Every other call is lowered."""
    return (g["groups"] == 1 and g["stride"] == (1, 1)
            and (g["kh"] * g["kw"] == 1 or g["c_out"] < g["c"]))


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


FORWARDS = ("_tap_stacked_forward", "_lowered_forward")
BACKWARDS = ("_tap_stacked_dw", "_lowered_dx")  # in conv2d_backward's order
KERNELS = FORWARDS + BACKWARDS


def layout_kernels(g):
    """The kernels of one conv2d call and one full conv2d_backward call of
    geometry ``g``, in order: the forward of its layout, then dw, which
    every call takes from frames, and dx, which every call lowers."""
    return [FORWARDS[not tap_stacked(g)], *BACKWARDS]


def record_kernels(monkeypatch, names):
    """Record the calls to the named nn.conv kernels by name."""
    calls = []
    for name in names:
        def recording(*args, name=name, real=getattr(conv, name)):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(conv, name, recording)
    return calls


def record_slices(monkeypatch):
    """Record each kernel's image slices as (start, stop) ranges."""
    calls = []
    real = conv._image_slices

    def recording(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(conv, "_image_slices", recording)
    return calls


def assert_peak_memory_bounded(x, w, dout, padding=0, groups=1):
    """The forward and dx each peak within 3 slice budgets plus their output."""
    tracemalloc.start()
    try:
        out = conv2d(x, w, None, 1, padding, groups)
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        dx, _, _ = conv2d_backward(x, w, dout, 1, padding, groups, need_dw=False)
        dx_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert forward_peak <= 3 * conv._SLICE_BYTES + out.nbytes
    assert dx_peak <= 3 * conv._SLICE_BYTES + dx.nbytes


def assert_sweep_matches_bruteforce(monkeypatch, geometries, seed):
    """Every geometry's forward, dx and dw within 1e-12 of the loop oracles,
    through the kernels of the layout its shape picks."""
    calls = record_kernels(monkeypatch, KERNELS)
    rng = np.random.default_rng(seed)
    for g in geometries:
        calls.clear()
        assert_matches_bruteforce(*random_operands(g, rng), g["stride"], g["padding"],
                                  g["groups"])
        assert calls == layout_kernels(g), g


def edge_shape(g):
    """One image, one input channel or a 1x1 output."""
    return g["n"] == 1 or g["c"] == 1 or g["ho"] * g["wo"] == 1


class TestAgainstEinsumKernels:
    """The shapes outside the scope where the retired patch matrix matched the
    einsum kernels bit for bit. They are the edge shapes of both layouts."""

    def test_outside_scope_matches_bruteforce(self, monkeypatch):
        geometries = sweep_geometries(8, 60, edge_shape)
        assert {(g["groups"] > 1, tap_stacked(g)) for g in geometries} == {
            (True, False), (False, True), (False, False)}
        assert_sweep_matches_bruteforce(monkeypatch, geometries, 12)


class TestTapStacked:
    @pytest.mark.parametrize("budget", [None, 1024])
    def test_sweep_matches_bruteforce(self, monkeypatch, budget):
        if budget:  # a few images, often one, per slice
            monkeypatch.setattr(conv, "_SLICE_BYTES", budget)
        slices = record_slices(monkeypatch)
        assert_sweep_matches_bruteforce(monkeypatch, sweep_geometries(9, 60, tap_stacked), 16)
        assert any(len(ranges) > 1 for ranges in slices) == bool(budget)

    @pytest.mark.parametrize("n,c,h,wd,c_out,kh,kw,padding", [
        (1, 5, 7, 6, 1, 3, 2, 0),         # one image, one output, 3x2 taps
        (3, 6, 8, 5, 2, 2, 4, (1, 2)),    # 2x4 taps, unequal padding
        (4, 4, 5, 5, 3, 5, 5, 2),         # 5x5 taps over a 5x5 input, padding 2
    ])
    def test_cases_match_bruteforce(self, monkeypatch, n, c, h, wd, c_out, kh, kw, padding):
        calls = record_kernels(monkeypatch, KERNELS)
        rng = np.random.default_rng(17)
        x = rng.standard_normal((n, c, h, wd))
        w = rng.standard_normal((c_out, c, kh, kw))
        dout = rng.standard_normal(conv2d(x, w, None, 1, padding).shape)
        assert_matches_bruteforce(x, w, dout, 1, padding)
        assert calls == ["_tap_stacked_forward"] * 2 + list(BACKWARDS)

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

    def test_peak_memory_is_bounded(self):
        # The Scratch first layer: a whole im2col patch matrix was 369 MB for
        # this forward and 380 MB for this dw.
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

    @pytest.mark.parametrize("c,c_out,stride,groups", [
        pytest.param(16, 8, 1, 8, id="tucker-stage"),
        pytest.param(64, 8, 2, 1, id="scratch-stride-2"),
    ])
    def test_dw_peak_memory_is_bounded(self, c, c_out, stride, groups):
        # dw takes frames for grouped and strided calls too, 200 tiles, 5x5.
        rng = np.random.default_rng(25)
        x = rng.standard_normal((200, c, 16, 16))
        w = rng.standard_normal((c_out, c // groups, 5, 5))
        dout = rng.standard_normal(conv2d(x, w, None, stride, 0, groups).shape)
        tracemalloc.start()
        try:
            conv2d_backward(x, w, dout, stride, 0, groups, need_dx=False)
            dw_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dw_peak <= 3 * conv._SLICE_BYTES + dout.nbytes


class TestLowered:
    @pytest.mark.parametrize("budget", [None, 1024])
    def test_sweep_matches_bruteforce(self, monkeypatch, budget):
        if budget:  # a few images, often one, per slice
            monkeypatch.setattr(conv, "_SLICE_BYTES", budget)
        slices = record_slices(monkeypatch)
        # Every grouped kind of random_geometry, and dense calls that are
        # strided or have at least as many outputs as inputs.
        geometries = sweep_geometries(10, 90, lambda g: not tap_stacked(g))
        assert {g["groups"] > 1 for g in geometries} == {True, False}
        assert_sweep_matches_bruteforce(monkeypatch, geometries, 19)
        assert any(len(ranges) > 1 for ranges in slices) == bool(budget)

    @pytest.mark.parametrize("n,c,h,wd,c_out,kh,kw,stride,padding,groups", [
        (2, 16, 9, 8, 8, 5, 5, 1, 0, 8),               # the Tucker stage: 2 channels per output
        (3, 6, 10, 7, 6, 5, 1, (2, 1), (1, 0), 6),     # CP's vertical stage, lowered transposed
        (3, 6, 7, 10, 6, 1, 5, (1, 2), (0, 1), 6),     # CP's horizontal stage
        (1, 6, 7, 6, 9, 2, 4, 2, (2, 1), 3),           # one image, 2x4 taps, 3 outputs per group
        (2, 4, 6, 9, 4, 4, 2, (1, 3), 0, 4),           # 4x2 taps, lowered transposed
        (4, 6, 5, 5, 4, 1, 1, 1, 1, 2),                # 1x1 grouped, padded
        (2, 3, 9, 8, 4, 7, 7, 2, 3, 1),                # ResNet conv1's 7x7, stride 2, padding 3
        (2, 6, 9, 10, 3, 7, 7, 2, 3, 3),               # the same, grouped: 2 channels per output
    ])
    @pytest.mark.parametrize("budget", [None, 1024])
    def test_cases_match_bruteforce(self, monkeypatch, budget, n, c, h, wd, c_out, kh, kw,
                                    stride, padding, groups):
        if budget:
            monkeypatch.setattr(conv, "_SLICE_BYTES", budget)
        calls = record_kernels(monkeypatch, KERNELS)
        rng = np.random.default_rng(20)
        x = rng.standard_normal((n, c, h, wd))
        w = rng.standard_normal((c_out, c // groups, kh, kw))
        dout = rng.standard_normal(conv2d(x, w, None, stride, padding, groups).shape)
        assert_matches_bruteforce(x, w, dout, stride, padding, groups)
        assert calls == ["_lowered_forward"] * 2 + list(BACKWARDS)

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

    def test_peak_memory_is_bounded(self):
        # The Tucker stage of 200 tiles: its patch matrix was 92 MB.
        rng = np.random.default_rng(23)
        x = rng.standard_normal((200, 16, 16, 16))
        w = rng.standard_normal((8, 2, 5, 5))
        assert_peak_memory_bounded(x, w, rng.standard_normal((200, 8, 12, 12)), groups=8)

    def test_mid_conv_peak_memory_is_bounded(self):
        # The mid conv of 200 tiles, 8 to 16 channels, 3x3 at padding 1.
        rng = np.random.default_rng(24)
        x = rng.standard_normal((200, 8, 12, 12))
        w = rng.standard_normal((16, 8, 3, 3))
        assert_peak_memory_bounded(x, w, rng.standard_normal((200, 16, 12, 12)), padding=1)


class TestSlicing:
    @pytest.mark.parametrize("n,c,h,wd,c_out,kh,kw,stride,padding", [
        (5, 5, 4, 6, 6, 3, 3, 1, 0),     # more outputs than inputs: lowered
        (7, 4, 4, 4, 3, 1, 1, 1, 0),     # pointwise: tap-stacked, one tap
        (1, 3, 7, 5, 4, 3, 2, 2, 1),     # one image, strided: lowered whole
        (2, 5, 9, 9, 3, 5, 5, 2, 2),     # strided 5x5 taps, padding 2: lowered
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
        # Every kernel tiles the images with whole-image slices, more than one
        # whenever there is more than one image.
        assert calls
        for ranges in calls:
            assert [a for a, _ in ranges] == [0] + [b for _, b in ranges[:-1]]
            assert ranges[-1][1] == n and (len(ranges) > 1) == (n > 1)


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
